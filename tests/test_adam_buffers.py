"""Adam's flat per-group buffers.

Each ``Adam`` lays its group's values, moments and gradients out as flat
arrays and rebinds every parameter's ``.data`` to a view of the value
buffer. These tests hold the flat update to the bytes of the per-tensor
loop it replaced, and check that every leaf the training core optimises
stays bound to its group's buffer: after ``_adam_batches`` starts, after
``run_novel``'s warm start, and after a ``load_run``.
"""

import numpy as np
import pytest

from tgk import training
from tgk.autodiff import Tensor
from tgk.config import ExperimentConfig
from tgk.optim import Adam
from tgk.persist import load_run, save_run
from tgk.synth import SynthConfig, generate_dataset
from tgk.training import (
    TrainConfig, _adam_batches, build_prototype_banks, run_novel, run_single,
)


def adam_loop(arrays, grads_per_step, lr, betas=(0.9, 0.999), eps=1e-8):
    """The per-tensor Adam update the flat buffers replaced, on copies of
    ``arrays``."""
    values = [a.copy() for a in arrays]
    ms = [np.zeros_like(a) for a in arrays]
    vs = [np.zeros_like(a) for a in arrays]
    beta1, beta2 = betas
    history = []
    for t, grads in enumerate(grads_per_step, start=1):
        c1 = 1.0 - beta1 ** t
        c2 = 1.0 - beta2 ** t
        for p, m, v, g in zip(values, ms, vs, grads):
            m *= beta1
            m += (1.0 - beta1) * g
            v *= beta2
            v += (1.0 - beta2) * (g * g)
            p -= lr * (m / c1) / (np.sqrt(v / c2) + eps)
        history.append([p.tobytes() for p in values])
    return history


def test_flat_update_equals_per_tensor_loop_bytes():
    """Over several steps with every gradient set; between them, a step
    with a None gradient in the middle of the group or at either end
    raises and moves no value."""
    rng = np.random.default_rng(0)
    shapes = [(3, 4), (4,), (1,), (2, 3, 2), (5,), (1, 6)]
    arrays = [rng.normal(size=s) for s in shapes]
    grads_per_step = [
        [rng.normal(size=s) * 10.0 ** rng.integers(-3, 3) for s in shapes]
        for _ in range(6)]
    missing = [(2,), (0, 5), (1, 3), (0, 1, 2, 3, 4, 5)]
    params = [Tensor(a, requires_grad=True) for a in arrays]
    opt = Adam(params, lr=0.01)
    got = []
    for step, grads in enumerate(grads_per_step):
        if step < len(missing):
            gone = missing[step]
            before = [p.data.tobytes() for p in params]
            for i, (p, g) in enumerate(zip(params, grads)):
                p.grad = None if i in gone else g
            with pytest.raises(ValueError, match=f"parameter {gone[0]} "):
                opt.step()
            assert [p.data.tobytes() for p in params] == before
        for p, g in zip(params, grads):
            p.grad = g
        opt.step()
        got.append([p.data.tobytes() for p in params])
    assert got == adam_loop(arrays, grads_per_step, lr=0.01)
    assert opt.t == len(grads_per_step)
    assert all(np.shares_memory(p.data, opt._p) for p in params)


def test_a_parameter_listed_twice_raises():
    w = Tensor(np.zeros(3), requires_grad=True)
    b = Tensor(np.zeros(2), requires_grad=True)
    with pytest.raises(ValueError, match="twice"):
        Adam([w, b, w])
    batches = _adam_batches([([w, b], 1e-3), ([w], 1e-3)], 4,
                            np.random.default_rng(0), 2, 1, 0)
    with pytest.raises(ValueError, match="twice"):
        next(batches)


# ---------------------------------------------------------------------------
# the training core keeps every leaf bound to its group's buffer
# ---------------------------------------------------------------------------


def tiny_dataset():
    return generate_dataset(SynthConfig(
        num_train_videos=6, num_val_videos=2, segments_per_video=16, dim=12,
        num_verbs=4, num_nouns=3, noise=0.1, lta_steps=3, seed=5))


def small_cfg():
    return TrainConfig(epochs=2, warmup_epochs=1, base_lr=1e-3, task_lr={},
                       batch_videos=4, seed=0)


@pytest.fixture
def made(monkeypatch):
    """Every ``Adam`` the training core builds while the test runs."""
    built = []

    class Recording(Adam):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(training, "Adam", Recording)
    return built


def assert_bound(optimizers):
    assert optimizers
    for opt in optimizers:
        for p in opt.params:
            assert np.shares_memory(p.data, opt._p)


def owners(model):
    return [(model.backbone.params(), 1e-3)] + [
        (branch.params(), 1e-3) for branch in model.branches.values()]


def test_adam_batches_binds_every_leaf_to_its_group_buffer(made):
    model = run_single("ar", tiny_dataset(), small_cfg())
    made.clear()
    values = [p.data.copy() for p in model.params()]
    batches = _adam_batches(owners(model), 4, np.random.default_rng(0), 2,
                            1, 0)
    _, _, leaves = next(batches)
    assert_bound(made)
    assert len(leaves) == len(model.params())
    assert all(np.array_equal(p.data, v)
               for p, v in zip(model.params(), values))
    for p in leaves:
        p.grad = np.ones_like(p.data)
    next(batches)
    assert_bound(made)
    assert not any(np.array_equal(p.data, v)
                   for p, v in zip(model.params(), values))


def test_leaves_stay_bound_after_the_warm_start(made):
    ds = tiny_dataset()
    support = run_single("ar", ds, small_cfg())
    banks = build_prototype_banks(support, ds)
    for interaction in (False, True):
        made.clear()
        model, _ = run_novel("oscc", ds, small_cfg(), support,
                             banks=banks if interaction else None,
                             interaction=interaction)
        assert_bound(made)
        trained = {id(p) for opt in made for p in opt.params}
        assert trained == {id(p) for p in model.params()}


def test_leaves_stay_bound_after_a_load_run(made, tmp_path):
    ds = tiny_dataset()
    model = run_single("ar", ds, small_cfg())
    save_run(tmp_path, model)
    cfg = ExperimentConfig(data=ds.config, train=small_cfg(),
                           backbone=model.backbone_cfg, tasks=("ar",))
    loaded, _, _ = load_run(tmp_path, cfg)
    assert all(p.data.tobytes() == q.data.tobytes()
               for p, q in zip(loaded.params(), model.params()))
    made.clear()
    batches = _adam_batches(owners(loaded), 4, np.random.default_rng(0), 2,
                            1, 0)
    _, _, leaves = next(batches)
    for p in leaves:
        p.grad = np.ones_like(p.data)
    next(batches)
    assert_bound(made)
