"""Gradient and tape-mechanics tests for the reverse-mode core.

Every differentiable primitive is compared against central finite
differences of a random weighted-sum loss. Structural behaviour of the
tape (accumulation, detach, unused leaves, scalar-loss requirement) is
checked separately with exact assertions. Each fused primitive is also
held to the bytes of the composed records it replaced; the records that
no longer exist in the library (``bmm``, ``permute``, the fused
``masked_softmax_rows``, the nine-record layer norm, the ``.at``
segment max) live here as those oracles, with their own checks.
"""

import numpy as np
import pytest

from tgk.autodiff import (
    GradientTape,
    ScatterPlan,
    Tensor,
    add,
    attention_index,
    backward,
    concat_rows,
    cross_entropy_rows,
    div,
    exp,
    gather_rows,
    leaky_relu,
    layer_norm_rows,
    linear,
    log,
    masked_attention,
    matmul,
    merge_heads,
    mul,
    relu,
    segment_max,
    segment_mean,
    segment_sum,
    sigmoid,
    softplus,
    split_heads,
    sub,
    take_per_row,
    tdgc_aggregate,
    tmean,
    tsum,
)
from tgk.autodiff import _emit, sigmoid_values

from oracle_ops import (
    clip, finite_diff_check, maximum, minimum, power, sqrt, take_cols,
)


def weighted_loss(out, weights):
    return tsum(mul(out, Tensor(weights)))


def numeric_grads(fn, arrays, weights, eps=1e-6):
    """Central-difference d(sum(fn(arrays) * weights))/d(arrays)."""

    def scalar(vals):
        with GradientTape():
            out = fn(*[Tensor(v) for v in vals])
        return float(np.sum(out.data * weights))

    grads = []
    for i, a in enumerate(arrays):
        g = np.zeros_like(a)
        flat = g.reshape(-1)
        for j in range(a.size):
            bumped = [v.copy() for v in arrays]
            bumped[i].reshape(-1)[j] += eps
            hi = scalar(bumped)
            bumped[i].reshape(-1)[j] -= 2 * eps
            lo = scalar(bumped)
            flat[j] = (hi - lo) / (2 * eps)
        grads.append(g)
    return grads


def check_grads(fn, arrays, rng, tol=1e-6):
    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    with GradientTape() as tape:
        out = fn(*leaves)
        weights = rng.normal(size=out.shape)
        loss = weighted_loss(out, weights)
    backward(tape, loss, leaves)
    expected = numeric_grads(fn, arrays, weights)
    for leaf, exp_g in zip(leaves, expected):
        err = np.max(np.abs(leaf.grad - exp_g)) / (1.0 + np.max(np.abs(exp_g)))
        assert err < tol, f"gradient mismatch for {fn}: {err}"


def strategies():
    """hypothesis' ``given``, ``settings`` and the strategies module; the
    calling test is skipped when hypothesis is not installed. Shrinking is
    off and generation derandomized, so a failure reports the same input
    every run without minutes of shrinking."""
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    settings = hyp.settings(max_examples=150, deadline=None,
                            derandomize=True, database=None,
                            phases=[p for p in hyp.Phase
                                    if p is not hyp.Phase.shrink])
    return hyp.given, settings, st


# ---------------------------------------------------------------------------
# byte oracles: records the fused primitives replaced
# ---------------------------------------------------------------------------


def bmm(a: Tensor, b: Tensor) -> Tensor:
    """Stacked product ``a[i] @ b[i]`` over the leading axes."""
    if a.ndim < 3 or a.shape[:-2] != b.shape[:-2] or a.shape[-1] != b.shape[-2]:
        raise ValueError(f"bmm shape mismatch: {a.shape} @ {b.shape}")
    return _emit(np.matmul(a.data, b.data), (a, b), lambda g: (
        np.matmul(g, b.data.swapaxes(-1, -2)),
        np.matmul(a.data.swapaxes(-1, -2), g)))


def permute(a: Tensor, axes) -> Tensor:
    """Axes reordered as ``a.data.transpose(axes)``, a view."""
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    return _emit(a.data.transpose(axes), (a,), lambda g: (g.transpose(inverse),))


def masked_softmax_rows(logits: Tensor, mask: np.ndarray) -> Tensor:
    """Softmax over the last axis restricted to ``mask``'s positions, as
    one record whose backward replays ``e / sum(e)`` in one buffer; it is
    itself held to ``composed_masked_softmax_rows`` below."""
    mask = np.asarray(mask, dtype=bool)
    if not mask.any(axis=-1).all():
        raise ValueError("masked_softmax_rows: some row admits no position")
    x = logits.data
    admitted = np.broadcast_to(mask, np.broadcast_shapes(x.shape, mask.shape))
    e = np.where(admitted, x, -np.inf)
    e -= e.max(axis=-1, keepdims=True)
    flat, at = e.reshape(-1), np.flatnonzero(admitted)
    weights = np.exp(flat[at])
    e.fill(0.0)
    flat[at] = weights
    s = e.sum(axis=-1, keepdims=True)

    def back(g):
        grad = np.negative(g)
        grad *= e
        grad /= s * s
        g_sum = grad.sum(axis=-1, keepdims=True)
        np.divide(g, s, out=grad)
        grad += g_sum
        grad *= e
        return (grad,)

    return _emit(e / s, (logits,), back)


def composed_attention(q: Tensor, k: Tensor, v: Tensor,
                       mask: np.ndarray) -> Tensor:
    """The five records ``masked_attention`` replaced."""
    scale = Tensor(1.0 / np.sqrt(q.shape[2]))
    scores = mul(bmm(q, permute(k, (0, 2, 1))), scale)
    return bmm(masked_softmax_rows(scores, mask), v)


def composed_layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """The nine records ``layer_norm_rows`` replaced."""
    mu = tmean(x, axis=1, keepdims=True)
    xc = sub(x, mu)
    var = tmean(mul(xc, xc), axis=1, keepdims=True)
    return add(mul(div(xc, sqrt(add(var, Tensor(1e-6)))), gamma), beta)


def composed_linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """The two records ``linear`` replaced."""
    return add(matmul(x, w), b)


# ---------------------------------------------------------------------------
# elementwise primitives against finite differences
# ---------------------------------------------------------------------------


def test_binary_elementwise_gradients():
    rng = np.random.default_rng(0)
    ops = [add, sub, mul, div, minimum, maximum]
    for op in ops:
        for _ in range(5):
            a = rng.normal(size=(4, 3))
            b = rng.normal(size=(4, 3))
            if op is div:
                b = np.sign(b) * (np.abs(b) + 0.5)
            if op in (minimum, maximum):
                # keep the two arguments apart so the winner is stable
                b = a + np.where(rng.random(a.shape) < 0.5, 0.3, -0.3)
            check_grads(op, [a, b], rng)


def test_unary_elementwise_gradients():
    rng = np.random.default_rng(1)
    cases = [
        (exp, lambda r: r.normal(size=(3, 5))),
        (log, lambda r: r.random((3, 5)) + 0.5),
        (sqrt, lambda r: r.random((3, 5)) + 0.5),
        (sigmoid, lambda r: r.normal(size=(3, 5))),
        (softplus, lambda r: r.normal(size=(3, 5))),
        (lambda t: relu(t), lambda r: r.normal(size=(3, 5)) + 0.2),
        (lambda t: leaky_relu(t, 0.2), lambda r: r.normal(size=(3, 5)) + 0.2),
        (lambda t: power(t, 3.0), lambda r: r.normal(size=(3, 5))),
        (lambda t: clip(t, -0.5, 0.5), lambda r: r.normal(size=(3, 5))),
    ]
    for op, draw in cases:
        for _ in range(4):
            a = draw(rng)
            # keep points away from kinks so finite differences are clean
            if op in (relu,) or "relu" in repr(op):
                a = np.where(np.abs(a) < 0.05, 0.2, a)
            if "clip" in repr(op):
                a = np.where(np.abs(np.abs(a) - 0.5) < 0.05, 0.3, a)
            check_grads(op, [a], rng)


def test_broadcasting_gradients():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(4, 3))
    b = rng.normal(size=(3,))
    check_grads(add, [a, b], rng)
    check_grads(mul, [a, b], rng)
    c = rng.normal(size=(4, 1))
    d = rng.normal(size=(1, 3))
    check_grads(mul, [c, d], rng)


# ---------------------------------------------------------------------------
# matmul, shape ops, reductions
# ---------------------------------------------------------------------------


def test_matmul_and_transpose_gradients():
    rng = np.random.default_rng(4)
    for _ in range(4):
        a = rng.normal(size=(4, 3))
        b = rng.normal(size=(3, 5))
        check_grads(matmul, [a, b], rng)
        check_grads(lambda t: permute(t, (1, 0)), [a], rng)


def test_reduction_gradients():
    rng = np.random.default_rng(6)
    a = rng.normal(size=(4, 5))
    check_grads(lambda t: tsum(t), [a], rng)
    check_grads(lambda t: tsum(t, axis=0), [a], rng)
    check_grads(lambda t: tsum(t, axis=1, keepdims=True), [a], rng)
    check_grads(lambda t: tmean(t), [a], rng)
    check_grads(lambda t: tmean(t, axis=0), [a], rng)
    check_grads(lambda t: tmean(t, axis=1, keepdims=True), [a], rng)


# ---------------------------------------------------------------------------
# gather / scatter style ops
# ---------------------------------------------------------------------------


def test_gather_rows_accumulates_repeated_indices():
    a = Tensor(np.arange(6, dtype=np.float64).reshape(3, 2), requires_grad=True)
    idx = np.array([0, 0, 2, 0])
    with GradientTape() as tape:
        out = gather_rows(a, idx)
        loss = tsum(out)
    backward(tape, loss, [a])
    expected = np.array([[3.0, 3.0], [0.0, 0.0], [1.0, 1.0]])
    assert np.array_equal(a.grad, expected)


def test_gather_take_gradients_numeric():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(5, 4))
    idx = np.array([4, 1, 1, 3])
    check_grads(lambda t: gather_rows(t, idx), [a], rng)
    cols = np.array([2, 0, 2])
    check_grads(lambda t: take_cols(t, cols), [a], rng)
    per_row = np.array([1, 3, 0, 2, 2])
    check_grads(lambda t: take_per_row(t, per_row), [a], rng)


def test_segment_ops_forward_and_empty_segments():
    a = Tensor(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]), requires_grad=True)
    seg = np.array([0, 0, 2])
    s = segment_sum(a, seg, 4)
    m = segment_mean(a, seg, 4)
    x = segment_max(a, seg, 4)
    assert np.array_equal(s.data, [[4.0, 6.0], [0.0, 0.0], [5.0, 6.0], [0.0, 0.0]])
    assert np.array_equal(m.data, [[2.0, 3.0], [0.0, 0.0], [5.0, 6.0], [0.0, 0.0]])
    assert np.array_equal(x.data, [[3.0, 4.0], [0.0, 0.0], [5.0, 6.0], [0.0, 0.0]])


def _add_at(values, ids, num_segments):
    """The scatter the segment kernel replaces: ``np.add.at`` into zeros."""
    out = np.zeros((num_segments,) + values.shape[1:])
    np.add.at(out, ids, values)
    return out


def test_segment_kernel_equals_add_at_bytes():
    """segment_sum, segment_mean and gather_rows' backward give the bytes of
    ``np.add.at``: repeated ids, empty segments, signed zeros, infinities,
    1-D and 2-D rows, zero-length input. Derandomized and without a shrink phase, so a
    failure reports the same input every run and does not shrink for
    minutes."""
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    settings = hyp.settings(max_examples=200, deadline=None,
                            derandomize=True, database=None,
                            phases=[p for p in hyp.Phase
                                    if p is not hyp.Phase.shrink])
    grid = (0.0, -0.0, 1.0, -1.0, 0.1, -0.3, 5e-324, -5e-324, 1e300, -1e300,
            np.inf, -np.inf)

    @st.composite
    def problems(draw):
        segments = draw(st.integers(1, 6))
        n = draw(st.integers(0, 24))
        shape = draw(st.sampled_from(((n,), (n, 1), (n, 3))))
        values = draw(st.lists(
            st.one_of(st.sampled_from(grid), st.floats(-1e3, 1e3)),
            min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))
        ids = draw(st.lists(st.integers(0, segments - 1),
                            min_size=n, max_size=n))
        return (np.array(values, dtype=np.float64).reshape(shape),
                np.array(ids, dtype=np.intp), segments)

    @settings
    @hyp.given(problems())
    @np.errstate(invalid="ignore")  # inf - inf is NaN on both sides
    def check(problem):
        values, ids, segments = problem
        summed = _add_at(values, ids, segments)
        assert (segment_sum(Tensor(values), ids, segments).data.tobytes()
                == summed.tobytes())
        counts = np.maximum(np.bincount(ids, minlength=segments), 1.0)
        mean = summed / counts.reshape((-1,) + (1,) * (values.ndim - 1))
        assert (segment_mean(Tensor(values), ids, segments).data.tobytes()
                == mean.tobytes())
        a = Tensor(np.zeros((segments,) + values.shape[1:]),
                   requires_grad=True)
        with GradientTape() as tape:
            # the upstream gradient of the gathered rows is ``values``
            loss = tsum(mul(gather_rows(a, ids), Tensor(values)))
        backward(tape, loss, [a])
        assert a.grad.tobytes() == summed.tobytes()

    check()


def _hypothesis_settings(hyp, examples=200):
    """Derandomized and without a shrink phase, so a failure reports the
    same input every run and does not shrink for minutes."""
    return hyp.settings(max_examples=examples, deadline=None,
                        derandomize=True, database=None,
                        phases=[p for p in hyp.Phase
                                if p is not hyp.Phase.shrink])


def _composed_tdgc(h, dt, src, dst, num_nodes, gate, signed):
    """TDGC's aggregate as the chain of primitives ``tdgc_aggregate``
    fuses: the byte oracle of its forward and backward."""
    msg = gather_rows(h, dst)
    if gate is not None:
        gate_w, gate_b = gate
        weights = relu(add(matmul(Tensor(np.abs(dt).reshape(-1, 1)), gate_w),
                           gate_b))
        msg = mul(msg, weights)
    if signed:
        msg = mul(msg, Tensor(np.sign(dt).reshape(-1, 1)))
    return segment_mean(msg, src, num_nodes)


def _tdgc_both_ways(h, dt, src, dst, gate_w, gate_b, upstream, use_gate,
                    signed):
    """(output, h grad, gate_w grad, gate_b grad) of the fused and the
    composed aggregate under the same upstream gradient."""
    n = h.shape[0]
    results = []
    for fused in (True, False):
        leaves = [Tensor(a, requires_grad=True) for a in (h, gate_w, gate_b)]
        gate = tuple(leaves[1:]) if use_gate else None
        with GradientTape() as tape:
            if fused:
                out = tdgc_aggregate(leaves[0], dt, ScatterPlan.of(src, n),
                                     ScatterPlan.of(dst, n), gate, signed)
            else:
                out = _composed_tdgc(leaves[0], dt, src, dst, n, gate, signed)
            loss = tsum(mul(out, Tensor(upstream)))
        backward(tape, loss, leaves=leaves)
        results.append([out.data] + [t.grad for t in leaves])
    return results


def test_tdgc_aggregate_equals_composed_chain_bytes():
    """The fused aggregate's output, taped or not, and every gradient
    equal the composed chain's bytes: random graphs with degrees 0 to 8,
    isolated nodes, time ties (sign 0), signed zeros, dead gate channels,
    all four gate/sign combinations."""
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    grid = (0.0, -0.0, 1.0, -1.0, 0.5, -0.3, 5e-324, -5e-324, 1e3, -1e3)
    number = st.one_of(st.sampled_from(grid), st.floats(-10.0, 10.0))
    d = 3

    def array(draw, shape):
        size = int(np.prod(shape))
        return np.array(draw(st.lists(number, min_size=size, max_size=size)),
                        dtype=np.float64).reshape(shape)

    @st.composite
    def problems(draw):
        n = draw(st.integers(1, 9))
        src, dst = [], []
        for i in range(n):
            for _ in range(draw(st.integers(0, 8))):
                src.append(i)
                dst.append(draw(st.integers(0, n - 1)))
        order = draw(st.permutations(range(len(src))))
        src = np.array(src, dtype=np.intp)[list(order)]
        dst = np.array(dst, dtype=np.intp)[list(order)]
        positions = np.array(draw(st.lists(st.sampled_from(
            (0.0, 0.5, 1.0, 2.0, 3.5)), min_size=n, max_size=n)))
        return (array(draw, (n, d)), positions[src] - positions[dst], src,
                dst, array(draw, (1, d)), array(draw, (d,)),
                array(draw, (n, d)), draw(st.booleans()), draw(st.booleans()))

    @_hypothesis_settings(hyp)
    @hyp.given(problems())
    @np.errstate(all="ignore")  # huge products overflow on both paths
    def check(problem):
        fused, composed = _tdgc_both_ways(*problem)
        for got, want in zip(fused, composed):
            assert got.tobytes() == want.tobytes()
        # a forward no tape records scales the rows in place
        h, dt, src, dst, gate_w, gate_b, _, use_gate, signed = problem
        n = h.shape[0]
        gate = (Tensor(gate_w), Tensor(gate_b)) if use_gate else None
        untaped = tdgc_aggregate(Tensor(h), dt, ScatterPlan.of(src, n),
                                 ScatterPlan.of(dst, n), gate, signed)
        assert untaped.data.tobytes() == composed[0].tobytes()

    check()


def test_tdgc_aggregate_gradients_numeric():
    rng = np.random.default_rng(12)
    n, d = 6, 3
    src = np.array([0, 0, 1, 2, 2, 2, 4, 5])
    dst = np.array([1, 3, 0, 1, 3, 4, 5, 4])
    dt = rng.normal(size=len(src))
    h = rng.normal(size=(n, d))
    # keep the gate's pre-activations away from the ReLU kink
    gate_w = np.abs(rng.normal(size=(1, d))) + 0.1
    gate_b = np.abs(rng.normal(size=d)) + 0.1
    plans = ScatterPlan.of(src, n), ScatterPlan.of(dst, n)
    for signed in (True, False):
        check_grads(lambda a, w, b: tdgc_aggregate(a, dt, *plans, (w, b),
                                                   signed),
                    [h, gate_w, gate_b], rng)
        check_grads(lambda a: tdgc_aggregate(a, dt, *plans, None, signed),
                    [h], rng)


def test_take_cols_backward_equals_add_at_bytes():
    """``take_cols``' backward, through the segment kernel, has the bytes
    of ``np.add.at`` over the gradient's transpose: duplicate and unused
    columns, signed zeros."""
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    grid = (0.0, -0.0, 1.0, -1.0, 0.1, -0.3, 5e-324, 1e300, -1e300)

    @st.composite
    def problems(draw):
        rows, width = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        cols = draw(st.lists(st.integers(0, width - 1), max_size=8))
        g = draw(st.lists(st.one_of(st.sampled_from(grid),
                                    st.floats(-1e3, 1e3)),
                          min_size=rows * len(cols),
                          max_size=rows * len(cols)))
        return (rows, width, np.array(cols, dtype=np.intp),
                np.array(g, dtype=np.float64).reshape(rows, len(cols)))

    @_hypothesis_settings(hyp)
    @hyp.given(problems())
    def check(problem):
        rows, width, cols, g = problem
        a = Tensor(np.ones((rows, width)), requires_grad=True)
        with GradientTape() as tape:
            loss = tsum(mul(take_cols(a, cols), Tensor(g)))
        backward(tape, loss, [a])
        want = np.zeros((rows, width))
        np.add.at(want.T, cols, g.T)
        assert a.grad.tobytes() == want.tobytes()

    check()


def test_segment_gradients_numeric():
    rng = np.random.default_rng(8)
    a = rng.normal(size=(6, 3))
    seg = np.array([0, 2, 0, 1, 2, 2])
    check_grads(lambda t: segment_sum(t, seg, 3), [a], rng)
    check_grads(lambda t: segment_mean(t, seg, 3), [a], rng)
    # spread values so the per-segment max winner is unambiguous
    a2 = a + 10.0 * np.arange(6).reshape(-1, 1)
    check_grads(lambda t: segment_max(t, seg, 3), [a2], rng)


def _maximum_at_max(values, ids, num_segments):
    """The ``.at`` scatter ``segment_max`` replaced, as its output and its
    backward: the byte oracle of both. Flattening by the rows' width is
    its one change, so that zero rows reshape."""
    n = len(values)
    flat = values.reshape(n, int(np.prod(values.shape[1:])))
    out = np.full((num_segments, flat.shape[1]), -np.inf)
    np.maximum.at(out, ids, flat)
    out[~np.isin(np.arange(num_segments), ids)] = 0.0
    # first row index achieving the max, per (segment, column)
    winner = np.full(out.shape, n, dtype=np.intp)
    hit_r, hit_c = np.nonzero(flat == out[ids])
    np.minimum.at(winner, (ids[hit_r], hit_c), hit_r)

    def back(g):
        grad = np.zeros_like(flat)
        seg_ids, cols = np.nonzero(winner < n)
        grad[winner[seg_ids, cols], cols] += g.reshape(out.shape)[seg_ids,
                                                                 cols]
        return grad.reshape(values.shape)

    return out.reshape((num_segments,) + values.shape[1:]), back


def test_segment_max_equals_maximum_at_bytes():
    """segment_max, over raw ids and over a plan, gives the output and the
    input gradient of the ``.at`` scatter it replaced, byte for byte:
    repeated ids, empty segments, zero rows, 1-D and 2-D rows, signed
    zeros, infinities and NaN, in the values and in the upstream
    gradient."""
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    grid = (0.0, -0.0, 1.0, -1.0, 0.1, -0.3, 5e-324, -5e-324, 1e300,
            np.inf, -np.inf, np.nan)
    number = st.one_of(st.sampled_from(grid), st.floats(-1e3, 1e3))

    @st.composite
    def problems(draw):
        segments = draw(st.integers(1, 6))
        n = draw(st.integers(0, 24))
        shape = draw(st.sampled_from(((n,), (n, 1), (n, 3))))
        values = draw(st.lists(number, min_size=int(np.prod(shape)),
                               max_size=int(np.prod(shape))))
        ids = draw(st.lists(st.integers(0, segments - 1),
                            min_size=n, max_size=n))
        width = int(np.prod(shape[1:]))
        g = draw(st.lists(number, min_size=segments * width,
                          max_size=segments * width))
        return (np.array(values, dtype=np.float64).reshape(shape),
                np.array(ids, dtype=np.intp), segments,
                np.array(g, dtype=np.float64).reshape((segments,)
                                                      + shape[1:]))

    @_hypothesis_settings(hyp)
    @hyp.given(problems())
    @np.errstate(invalid="ignore", over="ignore")  # inf and 1e300 in the loss
    def check(problem):
        values, ids, segments, g = problem
        want, want_back = _maximum_at_max(values, ids, segments)
        for seg in (ids, ScatterPlan.of(ids, segments)):
            a = Tensor(values, requires_grad=True)
            with GradientTape() as tape:
                out = segment_max(a, seg, segments)
                # the upstream gradient of the max is ``g``
                loss = tsum(mul(out, Tensor(g)))
            backward(tape, loss, [a])
            assert out.data.tobytes() == want.tobytes()
            assert a.grad.tobytes() == want_back(g).tobytes()

    check()


def test_segment_max_of_zero_rows_is_zeros():
    """No rows: every segment is empty, so the max is zeros, as the sum and
    the mean are, and the gradient is empty."""
    for seg in ([], ScatterPlan.of([], 3)):
        a = Tensor(np.zeros((0, 2)), requires_grad=True)
        with GradientTape() as tape:
            out = segment_max(a, seg, 3)
            loss = tsum(out)
        backward(tape, loss, [a])
        assert np.array_equal(out.data, segment_mean(a, seg, 3).data)
        assert out.shape == (3, 2) and a.grad.shape == (0, 2)


def test_segment_max_tie_routes_to_first_row():
    a = Tensor(np.array([[2.0], [2.0], [1.0]]), requires_grad=True)
    seg = np.array([0, 0, 0])
    with GradientTape() as tape:
        out = segment_max(a, seg, 1)
        loss = tsum(out)
    backward(tape, loss, [a])
    assert np.array_equal(a.grad, [[1.0], [0.0], [0.0]])


def test_concat_rows_splits_gradient():
    rng = np.random.default_rng(9)
    a = rng.normal(size=(2, 3))
    b = rng.normal(size=(4, 3))
    check_grads(lambda x, y: concat_rows([x, y]), [a, b], rng)


def test_concat_rows_with_shifts_keeps_add_then_concat_bytes():
    """Row shifts added in the concatenation's record give the bytes of an
    ``add`` per part, then ``concat_rows``: the output and every gradient,
    a frozen part's included."""
    rng = np.random.default_rng(19)
    parts = [rng.normal(size=(n, 5)) for n in (3, 1, 4)]
    shifts = [rng.normal(size=(1, 5)) for _ in parts]
    weights = rng.normal(size=(8, 5))

    def run(fused):
        xs = [Tensor(a, requires_grad=i != 1) for i, a in enumerate(parts)]
        ss = [Tensor(a, requires_grad=True) for a in shifts]
        with GradientTape() as tape:
            out = concat_rows(xs, ss) if fused else concat_rows(
                [add(x, sh) for x, sh in zip(xs, ss)])
            loss = weighted_loss(out, weights)
        backward(tape, loss, xs + ss)
        return [out.data] + [t.grad for t in xs + ss]

    for got, want in zip(run(True), run(False)):
        assert got.tobytes() == want.tobytes()
    check_grads(lambda x, y, u, v: concat_rows([x, y], [u, v]),
                [parts[0], parts[2], shifts[0], shifts[1]], rng)


# ---------------------------------------------------------------------------
# softmax family
# ---------------------------------------------------------------------------


def test_masked_softmax_sum_to_one_and_shift_invariant():
    rng = np.random.default_rng(10)
    for _ in range(5):
        logits = rng.normal(size=(4, 7)) * 5.0
        mask = rng.random((4, 7)) < 0.6
        mask[:, 3] = True
        p = masked_softmax_rows(Tensor(logits), mask).data
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)
        q = masked_softmax_rows(Tensor(logits + 100.0), mask).data
        assert np.allclose(p, q, atol=1e-12)


def test_masked_softmax_gradient_numeric():
    rng = np.random.default_rng(11)
    logits = rng.normal(size=(3, 5))
    mask = np.array([[True, True, False, True, True],
                     [True, True, True, True, True],
                     [False, True, False, False, True]])
    check_grads(lambda t: masked_softmax_rows(t, mask), [logits], rng)


def test_masked_softmax_masked_weight_exactly_zero():
    rng = np.random.default_rng(12)
    logits = rng.normal(size=(3, 6))
    mask = rng.random((3, 6)) < 0.5
    mask[:, 0] = True
    p = masked_softmax_rows(Tensor(logits), mask).data
    assert np.all(p[~mask] == 0.0)
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)


def test_masked_softmax_masked_logit_has_no_influence():
    rng = np.random.default_rng(13)
    logits = rng.normal(size=(2, 5))
    mask = np.array([[True, True, False, True, False],
                     [False, True, True, True, True]])
    base = masked_softmax_rows(Tensor(logits), mask).data
    bumped = logits.copy()
    bumped[0, 2] += 1000.0
    bumped[1, 0] -= 1000.0
    moved = masked_softmax_rows(Tensor(bumped), mask).data
    assert np.array_equal(base, moved)

    x = Tensor(logits, requires_grad=True)
    with GradientTape() as tape:
        loss = tsum(mul(masked_softmax_rows(x, mask),
                        Tensor(rng.normal(size=(2, 5)))))
    backward(tape, loss, [x])
    assert np.all(x.grad[~mask] == 0.0)


def test_masked_softmax_rejects_fully_masked_row():
    mask = np.array([[True, False], [False, False]])
    with pytest.raises(ValueError):
        masked_softmax_rows(Tensor(np.zeros((2, 2))), mask)


_MASK_OFF = -1e30  # large enough that exp underflows to exactly 0.0


def composed_masked_softmax_rows(logits: Tensor, mask: np.ndarray) -> Tensor:
    """The composed chain the fused ``masked_softmax_rows`` replaced, kept
    verbatim as its byte oracle."""
    mask = np.asarray(mask, dtype=bool)
    if not mask.any(axis=-1).all():
        raise ValueError("masked_softmax_rows: some row admits no position")
    shifted = add(logits, Tensor(np.where(mask, 0.0, _MASK_OFF)))
    rowmax = np.where(mask, shifted.data, -np.inf).max(axis=-1, keepdims=True)
    e = exp(sub(shifted, Tensor(rowmax)))
    return div(e, tsum(e, axis=-1, keepdims=True))


def softmax_bytes(softmax, logits, mask, weights):
    """Forward bytes and the logits' gradient bytes of a weighted sum."""
    x = Tensor(logits, requires_grad=True)
    with GradientTape() as tape:
        out = softmax(x, mask)
        loss = tsum(mul(out, Tensor(weights)))
    backward(tape, loss, [x])
    return out.data.tobytes(), x.grad.tobytes()


def test_fused_masked_softmax_equals_composed_bytes():
    rng = np.random.default_rng(15)
    cases = []
    for shape, mask_shape in (((5, 7), (5, 7)), ((4, 9, 9), (9, 9)),
                              ((3, 16, 16), (3, 16, 16))):
        for scale, offset in ((1.0, 0.0), (40.0, 0.0), (1e3, 1e4)):
            logits = rng.normal(size=shape) * scale + offset
            mask = rng.random(mask_shape) < 0.3
            mask[..., 0] = True
            cases.append((logits, mask))
    # rows that admit exactly one position, the diagonal only
    cases.append((rng.normal(size=(6, 6)) * 50.0, np.eye(6, dtype=bool)))
    cases.append((rng.normal(size=(2, 6, 6)), np.eye(6, dtype=bool)))
    for logits, mask in cases:
        weights = rng.normal(size=logits.shape)
        assert softmax_bytes(masked_softmax_rows, logits, mask, weights) == \
            softmax_bytes(composed_masked_softmax_rows, logits, mask, weights)


def test_masked_softmax_stacked_rows_gradient_numeric():
    rng = np.random.default_rng(16)
    mask = rng.random((5, 5)) < 0.5
    np.fill_diagonal(mask, True)
    check_grads(lambda t: masked_softmax_rows(t, mask),
                [rng.normal(size=(3, 5, 5))], rng)


# ---------------------------------------------------------------------------
# stacked (all-heads) attention primitives
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("tokens,dim,heads", [(64, 12, 4), (128, 32, 4)])
def test_bmm_over_heads_equals_per_head_matmul_bytes(tokens, dim, heads):
    """At the encoder's shapes, every slice of the stacked products, and of
    their gradients, holds the bytes of the per-head 2-D ``matmul`` chain
    over ``take_cols`` blocks."""
    rng = np.random.default_rng(17)
    q0, k0, v0 = (rng.normal(size=(tokens, dim)) for _ in range(3))
    w0 = rng.normal(size=(tokens, dim))
    attn = rng.random((heads, tokens, tokens))
    dh = dim // heads

    def grads(build):
        leaves = [Tensor(a, requires_grad=True) for a in (q0, k0, v0)]
        with GradientTape() as tape:
            scores, out = build(*leaves)
            loss = add(tsum(mul(out, Tensor(w0))), tsum(scores))
        backward(tape, loss, leaves)
        return scores.data, out.data, [t.grad for t in leaves]

    def stacked(q, k, v):
        scores = bmm(split_heads(q, heads), permute(split_heads(k, heads),
                                                    (0, 2, 1)))
        return scores, merge_heads(bmm(Tensor(attn), split_heads(v, heads)))

    def per_head(q, k, v):
        scores, outs = [], []
        for h in range(heads):
            cols = np.arange(h * dh, (h + 1) * dh)
            scores.append(matmul(take_cols(q, cols),
                                 permute(take_cols(k, cols), (1, 0))))
            outs.append(permute(matmul(Tensor(attn[h]), take_cols(v, cols)),
                                (1, 0)))
        return concat_rows(scores), permute(concat_rows(outs), (1, 0))

    s_new, o_new, g_new = grads(stacked)
    s_old, o_old, g_old = grads(per_head)
    for h in range(heads):
        assert s_new[h].tobytes() == s_old[h * tokens:(h + 1) * tokens].tobytes()
    assert o_new.tobytes() == o_old.tobytes()
    for a, b in zip(g_new, g_old):
        assert a.tobytes() == b.tobytes()


def test_bmm_gradient_finite_difference():
    rng = np.random.default_rng(18)
    a = Tensor(rng.normal(size=(3, 4, 5)), requires_grad=True)
    b = Tensor(rng.normal(size=(3, 5, 2)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 4, 2)))
    finite_diff_check(lambda: tsum(mul(bmm(a, b), w)), [a, b])


def test_bmm_rejects_mismatched_stacks():
    with pytest.raises(ValueError):
        bmm(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((3, 4, 5))))
    with pytest.raises(ValueError):
        bmm(Tensor(np.zeros((3, 4))), Tensor(np.zeros((4, 5))))


def test_head_split_merge_and_permute_gradients_numeric():
    rng = np.random.default_rng(19)
    check_grads(lambda t: split_heads(t, 3), [rng.normal(size=(4, 6))], rng)
    check_grads(merge_heads, [rng.normal(size=(3, 4, 2))], rng)
    check_grads(lambda t: permute(t, (2, 0, 1)), [rng.normal(size=(2, 3, 4))],
                rng)
    x = rng.normal(size=(5, 6))
    assert np.array_equal(merge_heads(split_heads(Tensor(x), 2)).data, x)
    assert np.array_equal(split_heads(Tensor(x), 2).data[1], x[:, 3:])


# ---------------------------------------------------------------------------
# fused attention and layer norm against their composed records
# ---------------------------------------------------------------------------


def fused_attention(q, k, v, mask):
    return masked_attention(q, k, v, mask, attention_index(mask, q.shape[0]))


def attention_bytes(attend, heads, inputs, mask, weights):
    """Forward bytes and the q, k and v gradient bytes of a weighted sum of
    the merged heads. As in the encoder, q, k and v come from
    ``split_heads``, so their slices are Fortran-ordered, and the gradient
    reaching the attention comes back through ``merge_heads``."""
    q, k, v = (Tensor(split_heads(Tensor(a), heads).data, requires_grad=True)
               for a in inputs)
    with GradientTape() as tape:
        out = attend(q, k, v, mask)
        loss = tsum(mul(merge_heads(out), Tensor(weights)))
    backward(tape, loss, [q, k, v])
    return [out.data.tobytes()] + [t.grad.tobytes() for t in (q, k, v)]


def test_masked_attention_equals_composed_chain_bytes():
    """Up to the encoder's (4 heads, 128 tokens, width 8), under masks
    whose rows admit only the diagonal, a random subset, everything, or
    the encoder's band (four tasks' tokens at shared positions, stages 1
    and 2, from ``build_mask``); and with the gradient exactly zero in
    some rows or all of them, as the last encoder layer's non-primary
    tokens get it."""
    from tgk.translation import build_mask

    given, settings, st = strategies()

    @settings
    @given(st.integers(1, 4), st.integers(1, 128), st.integers(1, 8),
           st.sampled_from(("diagonal", "subset", "full", "banded")),
           st.sampled_from(("none", "some", "all")),
           st.sampled_from((1.0, 30.0)), st.integers(0, 2**32 - 1))
    def check(heads, tokens, width, kind, zero_rows, spread, seed):
        rng = np.random.default_rng(seed)
        if kind == "banded":
            per_task = max(1, tokens // 4)
            tokens = 4 * per_task
            mask = build_mask(np.tile(np.arange(per_task) + 0.5, 4),
                              np.repeat(rng.integers(1, 3, size=4), per_task))
        elif kind == "subset":
            mask = rng.random((tokens, tokens)) < rng.uniform(0.0, 0.5)
            np.fill_diagonal(mask, True)
        else:
            mask = np.eye(tokens, dtype=bool) | (kind == "full")
        inputs = [rng.normal(size=(tokens, heads * width)) * spread
                  for _ in range(3)]
        weights = rng.normal(size=(tokens, heads * width))
        if zero_rows == "all":
            weights[:] = 0.0
        elif zero_rows == "some":
            weights[rng.random(tokens) < 0.5] = 0.0
        assert attention_bytes(fused_attention, heads, inputs, mask,
                               weights) == \
            attention_bytes(composed_attention, heads, inputs, mask, weights)

    check()


@pytest.mark.parametrize("x_grad", [True, False])
@pytest.mark.parametrize("bias", ["row", "per-node"])
def test_linear_equals_composed_chain_bytes(x_grad, bias):
    """With ``x`` also feeding a second map, so its two gradients land on
    one it already holds, and with a per-node (N, d) bias as the egopack
    interaction passes."""
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n, d_in, d_out = rng.integers(1, 40), rng.integers(1, 24), 8
        scale = (1e-3, 1.0, 1e3)[seed % 3]
        arrays = (rng.normal(size=(n, d_in)) * scale,
                  rng.normal(size=(d_in, d_out)),
                  rng.normal(size=(d_out,) if bias == "row" else (n, d_out)),
                  rng.normal(size=(d_in, d_out)))
        weights = rng.normal(size=(n, d_out))

        def run(affine):
            x = Tensor(arrays[0], requires_grad=x_grad)
            w, b, w2 = (Tensor(a, requires_grad=True) for a in arrays[1:])
            with GradientTape() as tape:
                out = affine(x, w, b)
                loss = tsum(mul(add(out, matmul(x, w2)), Tensor(weights)))
            leaves = [x, w, b, w2] if x_grad else [w, b, w2]
            backward(tape, loss, leaves)
            return [out.data.tobytes()] + [t.grad.tobytes() for t in leaves]

        assert run(linear) == run(composed_linear)


def test_linear_rejects_mismatched_shapes():
    with pytest.raises(ValueError, match="linear shape mismatch"):
        linear(Tensor(np.zeros((3, 4))), Tensor(np.zeros((5, 2))),
               Tensor(np.zeros(2)))


def test_layer_norm_rows_equals_composed_chain_bytes():
    """With ``x`` also feeding a residual ``add``, so its gradients through
    the centred rows and through the mean land on one it already holds."""
    given, settings, st = strategies()

    @settings
    @given(st.integers(1, 128), st.integers(1, 32),
           st.sampled_from((1e-4, 1.0, 50.0)), st.integers(0, 2**32 - 1))
    def check(rows, width, spread, seed):
        rng = np.random.default_rng(seed)
        arrays = (rng.normal(size=(rows, width)) * spread
                  + rng.normal(size=(rows, 1)), rng.normal(size=width),
                  rng.normal(size=width))
        weights = rng.normal(size=(rows, width))

        def run(norm):
            x, gamma, beta = (Tensor(a, requires_grad=True) for a in arrays)
            with GradientTape() as tape:
                out = add(x, norm(x, gamma, beta))
                loss = tsum(mul(out, Tensor(weights)))
            backward(tape, loss, [x, gamma, beta])
            return [out.data.tobytes()] + [t.grad.tobytes()
                                           for t in (x, gamma, beta)]

        assert run(layer_norm_rows) == run(composed_layer_norm)

    check()


def test_masked_attention_gradient_finite_difference():
    rng = np.random.default_rng(20)
    heads, tokens = 2, 5
    mask = rng.random((tokens, tokens)) < 0.4
    np.fill_diagonal(mask, True)
    leaves = [Tensor(rng.normal(size=(tokens, 6)), requires_grad=True)
              for _ in range(3)]
    w = Tensor(rng.normal(size=(tokens, 6)))
    finite_diff_check(lambda: tsum(mul(merge_heads(fused_attention(
        *(split_heads(t, heads) for t in leaves), mask)), w)), leaves)


def test_layer_norm_rows_gradient_finite_difference():
    rng = np.random.default_rng(21)
    x = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    gamma = Tensor(rng.normal(size=5), requires_grad=True)
    beta = Tensor(rng.normal(size=5), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 5)))
    finite_diff_check(lambda: tsum(mul(add(x, layer_norm_rows(x, gamma, beta)),
                                       w)), [x, gamma, beta])


def test_attention_index_covers_every_head_and_rejects_empty_rows():
    assert attention_index(np.eye(3, dtype=bool), 2).tolist() == \
        [0, 4, 8, 9, 13, 17]
    with pytest.raises(ValueError):
        attention_index(np.array([[True, False], [False, False]]), 2)


def test_cross_entropy_matches_logsumexp_oracle():
    rng = np.random.default_rng(14)
    for _ in range(5):
        logits = rng.normal(size=(6, 4)) * 3.0
        labels = rng.integers(0, 4, size=6)
        got = cross_entropy_rows(Tensor(logits), labels).item()
        shifted = logits - logits.max(axis=1, keepdims=True)
        lse = np.log(np.exp(shifted).sum(axis=1))
        expected = float(np.mean(lse - shifted[np.arange(6), labels]))
        assert abs(got - expected) < 1e-12


def test_cross_entropy_gradient_is_softmax_minus_onehot():
    rng = np.random.default_rng(15)
    logits = rng.normal(size=(5, 3))
    labels = np.array([2, 0, 1, 1, 0])
    x = Tensor(logits, requires_grad=True)
    with GradientTape() as tape:
        loss = cross_entropy_rows(x, labels)
    backward(tape, loss, [x])
    shifted = logits - logits.max(axis=1, keepdims=True)
    p = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)
    onehot = np.zeros_like(p)
    onehot[np.arange(5), labels] = 1.0
    assert np.allclose(x.grad, (p - onehot) / 5.0, atol=1e-10)


def test_cross_entropy_rejects_bad_labels():
    logits = Tensor(np.zeros((3, 4)))
    with pytest.raises(ValueError):
        cross_entropy_rows(logits, np.array([0, 1]))
    with pytest.raises(ValueError):
        cross_entropy_rows(logits, np.array([0, 1, 4]))
    with pytest.raises(ValueError):
        cross_entropy_rows(logits, np.array([0, -1, 2]))


# ---------------------------------------------------------------------------
# numeric stability of the logistic helper
# ---------------------------------------------------------------------------


def test_sigmoid_values_stable_at_extremes():
    with np.errstate(over="raise"):
        vals = sigmoid_values(np.array([-1000.0, -20.0, 0.0, 20.0, 1000.0]))
    assert vals[0] == 0.0
    assert vals[-1] == 1.0
    assert vals[2] == 0.5
    x = np.linspace(-15, 15, 41)
    assert np.allclose(sigmoid_values(x), 1.0 / (1.0 + np.exp(-x)), atol=1e-15)


# ---------------------------------------------------------------------------
# tape mechanics
# ---------------------------------------------------------------------------


def test_backward_requires_scalar_loss():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with GradientTape() as tape:
        y = mul(x, x)
    with pytest.raises(ValueError):
        backward(tape, y, [x])


def test_leaf_used_twice_accumulates():
    x = Tensor(np.array([3.0]), requires_grad=True)
    with GradientTape() as tape:
        loss = tsum(add(mul(x, x), x))
    backward(tape, loss, [x])
    assert np.allclose(x.grad, [7.0], atol=1e-12)


def test_detach_blocks_gradient():
    x = Tensor(np.array([2.0]), requires_grad=True)
    with GradientTape() as tape:
        frozen = x.detach()
        loss = tsum(mul(x, frozen))
    backward(tape, loss, [x, frozen])
    assert np.allclose(x.grad, [2.0], atol=1e-12)
    assert frozen.requires_grad is False
    assert np.array_equal(frozen.grad, [0.0])


def test_explicit_leaves_argument_reports_zeros():
    x = Tensor(np.array([1.0]), requires_grad=True)
    extra = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
    with GradientTape() as tape:
        loss = tsum(mul(x, x))
    backward(tape, loss, leaves=[extra])
    assert np.array_equal(extra.grad, np.zeros((1, 2)))


def test_constant_subgraph_not_recorded():
    a = Tensor(np.ones((2, 2)))
    with GradientTape() as tape:
        out = mul(a, a)
    assert out.requires_grad is False
    assert tape.records == []


def test_gradients_match_across_two_separate_tapes():
    rng = np.random.default_rng(16)
    a = rng.normal(size=(3, 3))
    x = Tensor(a, requires_grad=True)
    results = []
    for _ in range(2):
        with GradientTape() as tape:
            loss = tsum(mul(sigmoid(x), x))
        backward(tape, loss, [x])
        results.append(x.grad.copy())
    assert np.array_equal(results[0], results[1])
