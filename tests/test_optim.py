"""Optimizer, schedule, init, and gradient-check tests.

The Adam oracle values were computed by hand from the update equations
(two steps on a single scalar weight) and are asserted to full float64
precision. The schedule oracle values come from evaluating the warmup
line and cosine curve directly.
"""

import math

import numpy as np
import pytest

from tgk.autodiff import GradientTape, Tensor, backward, mul, sub, tsum
from tgk.optim import Adam, lr_at, uniform_fan_in

from oracle_ops import finite_diff_check


# ---------------------------------------------------------------------------
# Adam against hand-computed two-step trace
# ---------------------------------------------------------------------------


def test_adam_two_steps_match_hand_trace():
    # w0 = 0.5, lr = 0.01, defaults beta1=0.9 beta2=0.999 eps=1e-8.
    # step 1 with g=0.2: mhat = 0.2, vhat = 0.04,
    #   w1 = 0.5 - 0.01 * 0.2 / (0.2 + 1e-8) = 0.4900000005
    # step 2 with g=-0.1: m = 0.9*0.02 + 0.1*(-0.1) = 0.008,
    #   v = 0.999*4e-5 + 0.001*0.01 = 4.996e-5,
    #   mhat = 0.008/0.19, vhat = 4.996e-5/0.001999,
    #   w2 = w1 - 0.01 * mhat / (sqrt(vhat) + 1e-8) = 0.4873366302718676
    w = Tensor(np.array([0.5]), requires_grad=True)
    opt = Adam([w], lr=0.01)
    w.grad = np.array([0.2])
    opt.step()
    assert abs(w.data[0] - 0.4900000005) < 1e-15
    w.grad = np.array([-0.1])
    opt.step()
    assert abs(w.data[0] - 0.4873366302718676) < 1e-15


def test_adam_descends_on_quadratic():
    rng = np.random.default_rng(0)
    target = rng.normal(size=(4,))
    w = Tensor(np.zeros(4), requires_grad=True)
    opt = Adam([w], lr=0.05)
    for _ in range(400):
        opt.zero_grad()
        with GradientTape() as tape:
            diff = sub(w, Tensor(target))
            loss = tsum(mul(diff, diff))
        backward(tape, loss, [w])
        opt.step()
    assert np.max(np.abs(w.data - target)) < 1e-3


def test_adam_raises_on_none_grad_and_counts_steps():
    a = Tensor(np.array([1.0]), requires_grad=True)
    b = Tensor(np.array([2.0]), requires_grad=True)
    opt = Adam([a, b], lr=0.1)
    a.grad, b.grad = np.array([1.0]), np.array([-1.0])
    opt.step()
    assert opt.t == 1
    state = [x.copy() for x in (opt._p, opt._m, opt._v)]
    a.grad, b.grad = np.array([3.0]), None
    with pytest.raises(ValueError, match="parameter 1 has no gradient"):
        opt.step()
    assert opt.t == 1
    assert all(np.array_equal(x, y)
               for x, y in zip((opt._p, opt._m, opt._v), state))


def test_adam_rejects_frozen_parameters():
    with pytest.raises(ValueError):
        Adam([Tensor(np.zeros(2))], lr=0.1)


def test_adam_set_lr_keeps_moments():
    w = Tensor(np.array([0.0]), requires_grad=True)
    opt = Adam([w], lr=0.1)
    w.grad = np.array([1.0])
    opt.step()
    m_before = opt._m[0].copy()
    opt.set_lr(0.01)
    assert opt.lr == 0.01
    assert np.array_equal(opt._m[0], m_before)


# ---------------------------------------------------------------------------
# warmup + cosine schedule
# ---------------------------------------------------------------------------


def test_lr_schedule_frozen_values():
    base, warm, total = 1e-3, 5, 20
    assert lr_at(0, base, warm, total) == 0.0
    assert abs(lr_at(2, base, warm, total) - 4e-4) < 1e-18
    assert abs(lr_at(4, base, warm, total) - 8e-4) < 1e-18
    assert lr_at(5, base, warm, total) == base
    assert abs(lr_at(12, base, warm, total) - 0.0005522642316338268) < 1e-18
    assert abs(lr_at(19, base, warm, total) - 1.0926199633097156e-05) < 1e-18
    assert lr_at(20, base, warm, total) == 0.0
    assert lr_at(27, base, warm, total) == 0.0


def test_lr_schedule_shape_properties():
    base, warm, total = 0.02, 3, 30
    values = [lr_at(e, base, warm, total) for e in range(total + 1)]
    # rises during warmup, peaks at the boundary, then decays to zero
    assert all(values[i] < values[i + 1] for i in range(warm))
    assert values[warm] == base
    assert max(values) == base
    assert all(values[i] > values[i + 1] for i in range(warm, total))
    assert values[total] == 0.0
    # cosine midpoint of the decay sits at half the base rate
    mid = warm + (total - warm) // 2
    if (total - warm) % 2 == 0:
        assert abs(values[mid] - 0.5 * base) < 1e-15


def test_lr_schedule_rejects_bad_arguments():
    with pytest.raises(ValueError):
        lr_at(0, 1e-3, 10, 10)
    with pytest.raises(ValueError):
        lr_at(-1, 1e-3, 2, 10)


# ---------------------------------------------------------------------------
# fan-in init
# ---------------------------------------------------------------------------


def test_uniform_fan_in_bounds_and_spread():
    rng = np.random.default_rng(1)
    w = uniform_fan_in(rng, (64, 32))
    bound = math.sqrt(1.0 / 64)
    assert w.shape == (64, 32)
    assert np.max(np.abs(w)) <= bound
    assert np.max(np.abs(w)) > 0.9 * bound
    assert abs(np.mean(w)) < 0.01
    b = uniform_fan_in(rng, (32,), fan_in=64)
    assert np.max(np.abs(b)) <= bound


def test_uniform_fan_in_deterministic_given_seed():
    a = uniform_fan_in(np.random.default_rng(7), (5, 5))
    b = uniform_fan_in(np.random.default_rng(7), (5, 5))
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# finite-difference checker
# ---------------------------------------------------------------------------


def test_finite_diff_check_passes_on_correct_gradients():
    rng = np.random.default_rng(2)
    w = Tensor(rng.normal(size=(3, 3)), requires_grad=True)

    def build_loss():
        return tsum(mul(w, w))

    worst = finite_diff_check(build_loss, [w], rel_tol=1e-5)
    assert worst < 1e-5


def test_finite_diff_check_catches_wrong_gradient():
    from tgk.autodiff import _emit

    w = Tensor(np.array([1.5, -0.5]), requires_grad=True)

    def bad_square(t):
        # deliberately wrong backward: returns 3*x instead of 2*x
        return _emit(t.data * t.data, (t,), lambda g: (g * 3.0 * t.data,))

    def build_loss():
        return tsum(bad_square(w))

    with pytest.raises(AssertionError):
        finite_diff_check(build_loss, [w], rel_tol=1e-4)


def test_finite_diff_check_restores_parameter_values():
    w = Tensor(np.array([0.3, 0.7]), requires_grad=True)
    snapshot = w.data.copy()

    def build_loss():
        return tsum(mul(w, w))

    finite_diff_check(build_loss, [w])
    assert np.array_equal(w.data, snapshot)
