"""Adam optimizer, warmup/cosine schedule, and init."""

from __future__ import annotations

import math

import numpy as np

from .autodiff import Tensor

__all__ = ["Adam", "lr_at", "uniform_fan_in", "linear_init"]


class Adam:
    """Adam with bias correction over a fixed list of parameter tensors.

    One instance owns one parameter group; training code that needs
    different learning rates per task keeps one instance per group. The
    learning rate may be replaced between steps (schedules call
    ``set_lr``), which leaves moment state untouched.

    The group's values, first and second moments are three flat arrays,
    ``_p``, ``_m`` and ``_v``, laid out in parameter order, and each
    parameter's ``.data`` is rebound at construction to its view into
    ``_p``, so a step updates every parameter through one set of array
    expressions. A parameter listed twice would lose its view, so it
    raises ``ValueError``; code that loads values into a parameter later
    writes into ``.data`` in place.
    """

    def __init__(self, params: list[Tensor], lr: float = 1e-4,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8):
        self.params = list(params)
        for p in self.params:
            if not p.requires_grad:
                raise ValueError("Adam got a parameter with requires_grad=False")
        if len({id(p) for p in self.params}) < len(self.params):
            raise ValueError("Adam got the same parameter twice")
        self.lr = float(lr)
        self.beta1, self.beta2 = betas
        self.eps = float(eps)
        self.t = 0
        self._bounds = np.cumsum([0] + [p.data.size for p in self.params])
        self._p = np.empty(self._bounds[-1])
        for p, lo, hi in zip(self.params, self._bounds, self._bounds[1:]):
            self._p[lo:hi] = p.data.reshape(-1)
            p.data = self._p[lo:hi].reshape(p.data.shape)
        self._m = np.zeros_like(self._p)
        self._v = np.zeros_like(self._p)
        self._g = np.empty_like(self._p)

    def set_lr(self, lr: float) -> None:
        self.lr = float(lr)

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        """One update of the whole group. Every parameter's gradient is
        copied into one flat array, and the update runs once over the
        group's flat buffers. A parameter whose grad is None raises
        ``ValueError`` naming its index, before ``t`` or any value moves."""
        for i, (p, lo, hi) in enumerate(zip(self.params, self._bounds,
                                            self._bounds[1:])):
            if p.grad is None:
                raise ValueError(f"Adam.step: parameter {i} has no gradient")
            self._g[lo:hi] = p.grad.reshape(-1)
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        g, m, v = self._g, self._m, self._v
        m *= self.beta1
        m += (1.0 - self.beta1) * g
        v *= self.beta2
        v += (1.0 - self.beta2) * (g * g)
        self._p -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


def lr_at(epoch: int, base_lr: float, warmup_epochs: int, total_epochs: int) -> float:
    """Learning rate at integer ``epoch``: linear warmup then cosine decay.

    Warmup rises linearly from 0 at epoch 0 to ``base_lr`` at
    ``warmup_epochs`` (the two segments agree there), and the cosine tail
    reaches exactly 0 at ``total_epochs``.
    """
    if total_epochs <= warmup_epochs:
        raise ValueError("total_epochs must exceed warmup_epochs")
    if epoch < 0:
        raise ValueError("epoch must be non-negative")
    if epoch < warmup_epochs:
        return base_lr * epoch / warmup_epochs
    if epoch >= total_epochs:
        return 0.0
    frac = (epoch - warmup_epochs) / (total_epochs - warmup_epochs)
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * frac))


def uniform_fan_in(rng: np.random.Generator, shape: tuple[int, ...],
                   fan_in: int | None = None) -> np.ndarray:
    """Uniform init on (-sqrt(1/fan_in), +sqrt(1/fan_in)).

    ``fan_in`` defaults to the first dimension, matching (in, out) weight
    layout; pass it explicitly for bias vectors so they share the scale of
    the weight they accompany.
    """
    if fan_in is None:
        fan_in = shape[0]
    bound = math.sqrt(1.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


def linear_init(rng: np.random.Generator, d_in: int, d_out: int
                ) -> tuple[Tensor, Tensor]:
    """Trainable (d_in, d_out) weight and (d_out,) bias, weight drawn first,
    both on the weight's fan-in scale."""
    w = Tensor(uniform_fan_in(rng, (d_in, d_out)), requires_grad=True)
    b = Tensor(uniform_fan_in(rng, (d_out,), fan_in=d_in), requires_grad=True)
    return w, b
