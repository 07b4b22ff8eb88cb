"""Tape primitives, metrics and the gradient checker that only the tests
use.

No ``tgk`` module calls these. They build the composed chains that the
fused records replaced (``focal_loss``' clip and power, ``diou_loss``'
column picks, ``minimum`` and ``maximum``, the nine-record layer norm's
``sqrt``, the per-head ``take_cols`` blocks), and ``iou_1d`` is the
scalar IoU the detection oracles score with. Each is taped the way the
library's own primitives are, so the chains keep the bytes they had in
``tgk``. ``finite_diff_check`` is the central-difference harness every
trainable layer's tape gradients are checked against.
"""

from __future__ import annotations

import numpy as np

from tgk.autodiff import (
    GradientTape, ScatterPlan, Tensor, _emit, _unbroadcast, backward,
    power_grad,
)


def sqrt(a: Tensor) -> Tensor:
    out = np.sqrt(a.data)
    return _emit(out, (a,), lambda g: (g * 0.5 / out,))


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    out = np.clip(a.data, lo, hi)
    inside = (a.data > lo) & (a.data < hi)
    return _emit(out, (a,), lambda g: (g * inside,))


def power(a: Tensor, p: float) -> Tensor:
    p = float(p)
    return _emit(a.data ** p, (a,), lambda g: (power_grad(g, a.data, p),))


def minimum(a: Tensor, b: Tensor) -> Tensor:
    a_wins = a.data <= b.data  # ties route to the first argument
    return _emit(np.where(a_wins, a.data, b.data), (a, b), lambda g: (
        _unbroadcast(g * a_wins, a.shape), _unbroadcast(g * ~a_wins, b.shape)))


def maximum(a: Tensor, b: Tensor) -> Tensor:
    a_wins = a.data >= b.data
    return _emit(np.where(a_wins, a.data, b.data), (a, b), lambda g: (
        _unbroadcast(g * a_wins, a.shape), _unbroadcast(g * ~a_wins, b.shape)))


def take_cols(a: Tensor, cols) -> Tensor:
    """Select columns ``a[:, cols]`` of a 2-D tensor; backward scatter-adds
    the gradient's columns through the segment kernel over its transpose."""
    cols = np.asarray(cols, dtype=np.intp).reshape(-1)

    def back(g):
        out = np.empty_like(a.data)
        out.T[...] = ScatterPlan.of(cols, a.shape[1]).scatter(g.T)
        return (out,)

    return _emit(a.data[:, cols], (a,), back)


def iou_1d(a, b) -> float:
    """IoU of two [start, end] intervals; degenerate unions score 0."""
    inter = max(0.0, min(a[1], b[1]) - max(a[0], b[0]))
    union = (a[1] - a[0]) + (b[1] - b[0]) - inter
    return inter / union if union > 0 else 0.0


def finite_diff_check(build_loss, params: list[Tensor], rel_tol: float = 1e-4,
                      eps: float = 1e-6, max_entries: int = 40,
                      rng: np.random.Generator | None = None,
                      atol: float = 1e-9) -> float:
    """Compare tape gradients against central finite differences.

    ``build_loss`` is a zero-argument callable returning a scalar Tensor;
    it must read the current values of ``params`` each call. For each
    parameter a subset of entries (all, or ``max_entries`` sampled ones) is
    perturbed by +-eps. Returns the worst relative error and raises
    AssertionError if it exceeds ``rel_tol``.

    Differences within ``atol`` count as agreement: the numeric side
    carries roundoff noise of about ulp(loss) / (2 * eps), so entries
    whose true gradient sits below that floor would otherwise report
    spurious mismatches that shrink as eps grows, the signature of
    measurement noise rather than a wrong derivative.
    """
    with GradientTape() as tape:
        loss = build_loss()
    backward(tape, loss, leaves=params)
    analytic = [p.grad.copy() for p in params]

    if rng is None:
        rng = np.random.default_rng(0)
    worst = 0.0
    for p, g in zip(params, analytic):
        flat = p.data.reshape(-1)
        idxs = np.arange(flat.size)
        if flat.size > max_entries:
            idxs = rng.choice(flat.size, size=max_entries, replace=False)
        for i in idxs:
            keep = flat[i]
            flat[i] = keep + eps
            up = build_loss().item()
            flat[i] = keep - eps
            down = build_loss().item()
            flat[i] = keep
            numeric = (up - down) / (2.0 * eps)
            a = g.reshape(-1)[i]
            if abs(a - numeric) <= atol:
                continue
            denom = max(abs(a), abs(numeric), 1e-8)
            rel = abs(a - numeric) / denom
            worst = max(worst, rel)
    if worst > rel_tol:
        raise AssertionError(f"gradient check failed: rel err {worst:.3e} > {rel_tol:.1e}")
    return worst
