"""Task neck, alignment, head, and loss tests.

Loss oracles are hand-computed scalars (stated next to each assert).
Alignment and decoding are checked against direct per-interval loops.
"""

import numpy as np
import pytest

from tgk.autodiff import (
    GradientTape, Tensor, add, backward, div, gather_rows, log, mul, relu,
    segment_mean, sub, tmean, tsum,
)
from tgk.graph import TemporalGraph, build_graph
from tgk.tasks import (
    LtaParams,
    MlpParams,
    MqParams,
    ScorerParams,
    align_video_intervals,
    bce_with_logits,
    diou_loss,
    focal_loss,
    interval_nodes,
    lta_candidates,
    lta_forward,
    mlp_forward,
    mq_decode,
    mq_forward,
    mq_targets,
    neck_forward,
    scorer_forward,
)

from oracle_ops import (
    clip, finite_diff_check, maximum, minimum, power, take_cols,
)


# ---------------------------------------------------------------------------
# necks and heads are plain MLPs
# ---------------------------------------------------------------------------


def test_neck_matches_numpy_mlp():
    rng = np.random.default_rng(0)
    p = MlpParams.init(rng, 6, 6, 6)
    x = rng.normal(size=(9, 6))
    got = neck_forward(p, Tensor(x)).data
    hidden = np.maximum(x @ p.w1.data + p.b1.data, 0.0)
    assert np.allclose(got, hidden @ p.w2.data + p.b2.data, atol=1e-12)


def test_classifier_and_scorer_shapes_and_oracle():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(7, 5))
    cls = MlpParams.init(rng, 5, 5, 11)
    out = mlp_forward(cls, Tensor(x)).data
    hidden = np.maximum(x @ cls.w1.data + cls.b1.data, 0.0)
    assert out.shape == (7, 11)
    assert np.allclose(out, hidden @ cls.w2.data + cls.b2.data, atol=1e-12)

    sc = ScorerParams.init(rng, 5)
    logits = scorer_forward(sc, Tensor(x)).data
    assert logits.shape == (7, 1)
    assert np.allclose(logits, x @ sc.w.data + sc.b.data, atol=1e-12)


# ---------------------------------------------------------------------------
# interval alignment
# ---------------------------------------------------------------------------


def align_one_video(x, positions, intervals):
    """``align_video_intervals`` on a one-video graph over ``positions``."""
    g = build_graph(np.zeros((len(positions), 1)), positions)
    return align_video_intervals(x, g, 0, intervals)


def test_align_intervals_strict_membership_mean():
    positions = np.array([0.5, 1.5, 2.5, 3.5])
    x = np.arange(8.0).reshape(4, 2)
    pooled, fallback = align_one_video(Tensor(x), positions,
                                       np.array([[1.0, 3.0], [0.0, 4.0]]))
    # (1, 3) admits nodes at 1.5 and 2.5 only; boundaries are exclusive
    assert np.allclose(pooled.data[0], x[[1, 2]].mean(axis=0), atol=1e-12)
    assert np.allclose(pooled.data[1], x.mean(axis=0), atol=1e-12)
    assert not fallback.any()


def test_align_intervals_boundary_nodes_excluded():
    positions = np.array([1.0, 2.0, 3.0])
    x = np.eye(3)
    pooled, fallback = align_one_video(Tensor(x), positions, np.array([[1.0, 3.0]]))
    assert np.array_equal(pooled.data[0], x[1])
    assert not fallback[0]


def test_align_intervals_empty_falls_back_to_nearest():
    positions = np.array([0.0, 10.0, 20.0])
    x = np.diag([1.0, 2.0, 3.0])
    pooled, fallback = align_one_video(Tensor(x), positions,
                                       np.array([[11.0, 13.0], [-0.5, 9.0]]))
    # (11, 13) captures nothing; midpoint 12 is nearest node 1
    assert np.array_equal(pooled.data[0], x[1])
    assert fallback[0]
    assert not fallback[1]
    assert np.array_equal(pooled.data[1], x[0])


def test_align_intervals_gradient_splits_evenly():
    positions = np.array([0.5, 1.5, 2.5])
    x = Tensor(np.zeros((3, 2)), requires_grad=True)
    with GradientTape() as tape:
        pooled, _ = align_one_video(x, positions, np.array([[0.0, 3.0]]))
        loss = tsum(pooled)
    backward(tape, loss, [x])
    assert np.allclose(x.grad, np.full((3, 2), 1.0 / 3.0), atol=1e-12)


def test_align_video_intervals_uses_only_that_video():
    positions = np.array([0.5, 1.5, 0.5, 1.5])
    bounds = np.array([0, 2, 4])
    feats = np.arange(8.0).reshape(4, 2)
    g = build_graph(feats, positions, bounds)
    pooled, _ = align_video_intervals(Tensor(feats), g, 1, np.array([[0.0, 2.0]]))
    assert np.allclose(pooled.data[0], feats[2:].mean(axis=0), atol=1e-12)


def two_gather_alignment(x, g, video, intervals):
    """The former alignment: an identity gather of the video's rows, then
    a gather of the covered nodes and a segment mean."""
    sl = g.video_slice(video)
    rows = gather_rows(x, np.arange(sl.start, sl.stop, dtype=np.intp))
    nodes, ids, fallback = interval_nodes(g.positions_s[sl], intervals)
    return segment_mean(gather_rows(rows, nodes), ids, len(fallback)), fallback


def test_one_gather_alignment_matches_two_gathers_bytewise():
    rng = np.random.default_rng(11)
    for _ in range(25):
        sizes = rng.integers(1, 9, size=rng.integers(1, 4))
        bounds = np.cumsum(np.concatenate([[0], sizes]))
        positions = np.concatenate([np.sort(rng.uniform(0.0, 12.0, size=n))
                                    for n in sizes])
        g = build_graph(np.zeros((bounds[-1], 1)), positions, bounds)
        video = int(rng.integers(len(sizes)))
        pos = g.positions_s[g.video_slice(video)]
        starts = rng.uniform(-2.0, 14.0, size=rng.integers(1, 6))
        intervals = np.stack([starts, starts + rng.uniform(0.0, 6.0,
                                                           len(starts))], 1)
        # a repeat, then three that capture no node and fall back: one
        # just past the first node, a zero-length one, one past the end
        gap = pos[0] + 1e-9
        intervals = np.concatenate([intervals, intervals[:1],
                                    [[gap, gap + 1e-12], [pos[0], pos[0]],
                                     [pos[-1] + 5.0, pos[-1] + 6.0]]])
        feats = rng.normal(size=(bounds[-1], 3))
        upstream = rng.normal(size=(len(intervals), 3))
        results = []
        for align in (align_video_intervals, two_gather_alignment):
            x = Tensor(feats, requires_grad=True)
            with GradientTape() as tape:
                pooled, fallback = align(x, g, video, intervals)
                loss = tsum(mul(pooled, Tensor(upstream)))
            backward(tape, loss, [x])
            results.append((pooled.data.tobytes(), fallback.tobytes(),
                            x.grad.tobytes()))
        assert results[0] == results[1]
        assert fallback[-3:].all()


# ---------------------------------------------------------------------------
# forecasting head
# ---------------------------------------------------------------------------


def test_lta_forward_shapes_and_block_layout():
    rng = np.random.default_rng(2)
    p = LtaParams.init(rng, 6, num_verbs=4, num_nouns=3, num_steps=5)
    ctx = rng.normal(size=(3, 6))
    verbs, nouns = lta_forward(p, Tensor(ctx))
    assert verbs.shape == (15, 4)
    assert nouns.shape == (15, 3)
    # identical context rows produce identical per-step blocks
    same = np.stack([ctx[0], ctx[0]])
    v2, _ = lta_forward(p, Tensor(same))
    assert np.allclose(v2.data[:5], v2.data[5:], atol=1e-12)


def test_lta_forward_contexts_do_not_leak():
    rng = np.random.default_rng(3)
    p = LtaParams.init(rng, 6, num_verbs=4, num_nouns=3, num_steps=4)
    ctx = rng.normal(size=(2, 6))
    v_all, n_all = lta_forward(p, Tensor(ctx))
    v_solo, n_solo = lta_forward(p, Tensor(ctx[:1]))
    assert np.allclose(v_all.data[:4], v_solo.data, atol=1e-12)
    assert np.allclose(n_all.data[:4], n_solo.data, atol=1e-12)
    bumped = ctx.copy()
    bumped[1] += 5.0
    v_bumped, _ = lta_forward(p, Tensor(bumped))
    assert np.allclose(v_all.data[:4], v_bumped.data[:4], atol=1e-12)
    assert not np.allclose(v_all.data[4:], v_bumped.data[4:], atol=1e-6)


def test_lta_steps_are_differentiated():
    rng = np.random.default_rng(4)
    p = LtaParams.init(rng, 6, num_verbs=4, num_nouns=3, num_steps=6)
    # nudge gates so time offsets modulate messages
    for layer in (p.refine1, p.refine2):
        for t in (layer.gate_w, layer.gate_b):
            t.data += rng.normal(scale=0.2, size=t.shape)
    verbs, _ = lta_forward(p, Tensor(rng.normal(size=(1, 6))))
    diffs = np.abs(np.diff(verbs.data, axis=0)).max()
    assert diffs > 1e-6


def test_lta_forward_gradients():
    rng = np.random.default_rng(5)
    p = LtaParams.init(rng, 4, num_verbs=3, num_nouns=2, num_steps=3)
    ctx = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
    weights = Tensor(rng.normal(size=(6, 3)))

    def build_loss():
        v, _ = lta_forward(p, ctx)
        return tsum(mul(v, weights))

    assert finite_diff_check(build_loss, p.params() + [ctx], rel_tol=1e-5) < 1e-5


def test_lta_candidates_argmax_first_and_deterministic():
    rng = np.random.default_rng(6)
    vl = rng.normal(size=(5, 4))
    nl = rng.normal(size=(5, 3))
    cands = lta_candidates(vl, nl, 4, np.random.default_rng(7))
    assert len(cands) == 4
    assert np.array_equal(cands[0][0], vl.argmax(axis=1))
    assert np.array_equal(cands[0][1], nl.argmax(axis=1))
    for verbs, nouns in cands:
        assert verbs.shape == (5,) and nouns.shape == (5,)
        assert verbs.min() >= 0 and verbs.max() < 4
        assert nouns.min() >= 0 and nouns.max() < 3
    again = lta_candidates(vl, nl, 4, np.random.default_rng(7))
    for (v1, n1), (v2, n2) in zip(cands, again):
        assert np.array_equal(v1, v2) and np.array_equal(n1, n2)


# ---------------------------------------------------------------------------
# detection head
# ---------------------------------------------------------------------------


def test_mq_forward_ranges_and_stage_scaling():
    rng = np.random.default_rng(8)
    p = MqParams.init(rng, 5, num_classes=3)
    x = Tensor(rng.normal(size=(6, 5)))
    scores1, off1 = mq_forward(p, x, stage=1)
    scores3, off3 = mq_forward(p, x, stage=3)
    assert np.all((scores1.data > 0) & (scores1.data < 1))
    assert np.all(off1.data > 0)
    assert np.array_equal(scores1.data, scores3.data)
    assert np.allclose(off3.data, 4.0 * off1.data, atol=1e-12)


def test_mq_decode_hand_case():
    positions = np.array([2.0, 5.0, 9.0])
    scores = np.array([[0.9, 0.2], [0.05, 0.6], [0.5, 0.5]])
    offsets = np.array([[1.0, 2.0], [1.5, 1.5], [4.0, 3.0]])
    ivals, svals, cvals = mq_decode(positions, scores, offsets,
                                    extent_s=(0.0, 10.0), min_score=0.1)
    # node 0 keeps class 0 and class 1; node 1 drops class 0 (0.05 < 0.1);
    # node 2 clamps to (5, 10); order is node-major, class-minor
    assert np.allclose(ivals, [[1.0, 4.0], [1.0, 4.0], [3.5, 6.5],
                               [5.0, 10.0], [5.0, 10.0]], atol=1e-12)
    assert np.allclose(svals, [0.9, 0.2, 0.6, 0.5, 0.5], atol=1e-12)
    assert np.array_equal(cvals, [0, 1, 1, 0, 1])


def test_mq_decode_drops_degenerate_after_clamp():
    positions = np.array([0.0])
    scores = np.array([[0.9]])
    offsets = np.array([[5.0, 0.0]])  # clamps to [0, 0]: zero length
    ivals, svals, cvals = mq_decode(positions, scores, offsets, (0.0, 10.0))
    assert ivals.shape == (0, 2) and svals.shape == (0,) and cvals.shape == (0,)


def test_mq_targets_shortest_segment_wins():
    positions = np.array([1.0, 3.0, 8.0])
    segments = np.array([[0.0, 6.0], [2.5, 3.5]])
    labels = np.array([0, 2])
    cls_t, off_t, pos = mq_targets(positions, 1, segments, labels, 3)
    assert pos.tolist() == [True, True, False]
    assert np.array_equal(cls_t[0], [1.0, 0.0, 0.0])
    # node at 3.0 lies in both segments; the shorter one (label 2) wins
    assert np.array_equal(cls_t[1], [0.0, 0.0, 1.0])
    assert np.allclose(off_t[0], [1.0, 5.0], atol=1e-12)
    assert np.allclose(off_t[1], [0.5, 0.5], atol=1e-12)
    assert np.array_equal(cls_t[2], np.zeros(3))


def test_mq_targets_inclusive_bounds_and_stage_scale():
    positions = np.array([2.0, 4.0])
    segments = np.array([[2.0, 4.0]])
    labels = np.array([1])
    cls_t, off_t, pos = mq_targets(positions, 3, segments, labels, 2)
    assert pos.all()
    # offsets divide by the stage-3 scale 4.0
    assert np.allclose(off_t, [[0.0, 0.5], [0.5, 0.0]], atol=1e-12)


def test_mq_targets_decode_roundtrip():
    rng = np.random.default_rng(9)
    for _ in range(5):
        starts = np.sort(rng.uniform(0, 20, size=3))
        segments = np.stack([starts, starts + rng.uniform(1, 4, size=3)], axis=1)
        labels = rng.integers(0, 4, size=3)
        positions = np.linspace(0.25, 24.0, 32)
        stage = int(rng.integers(1, 4))
        cls_t, off_t, pos = mq_targets(positions, stage, segments, labels, 4)
        # feeding the supervision targets back through the decoder must
        # reproduce each positive node's assigned segment exactly
        scale = 2.0 ** (stage - 1)
        ivals, _, cvals = mq_decode(positions[pos], cls_t[pos], off_t[pos] * scale,
                                    (0.0, 30.0), min_score=0.5)
        assert len(ivals) == int(pos.sum())
        for row, cls in zip(ivals, cvals):
            match = np.any(np.all(np.isclose(segments, row, atol=1e-9), axis=1))
            assert match
            assert cls in labels


# ---------------------------------------------------------------------------
# losses with frozen scalar oracles
# ---------------------------------------------------------------------------


def test_bce_with_logits_frozen_values():
    # softplus(0.3) - 0.3 * 1 = 0.5543552444685269
    got = bce_with_logits(Tensor(np.array([[0.3]])), np.array([1.0])).item()
    assert abs(got - 0.5543552444685269) < 1e-15
    # softplus(-1.2) - 0 = 0.2632824673380313
    got = bce_with_logits(Tensor(np.array([[-1.2]])), np.array([0.0])).item()
    assert abs(got - 0.2632824673380313) < 1e-15


def test_bce_with_logits_mean_and_stability():
    logits = np.array([[-50.0], [50.0], [0.0]])
    targets = np.array([0.0, 1.0, 1.0])
    with np.errstate(over="raise"):
        got = bce_with_logits(Tensor(logits), targets).item()
    expected = (0.0 + 0.0 + np.log(2.0)) / 3.0
    assert abs(got - expected) < 1e-12


def test_focal_loss_frozen_values():
    # positive, p=0.9: -0.25 * 0.1^2 * log(0.9) = 0.00026340128914456557
    got = focal_loss(Tensor(np.array([[0.9]])), np.array([1.0])).item()
    assert abs(got - 0.00026340128914456557) < 1e-15
    # negative, p=0.2: -0.75 * 0.2^2 * log(0.8) = 0.006694306539426292
    got = focal_loss(Tensor(np.array([[0.2]])), np.array([0.0])).item()
    assert abs(got - 0.006694306539426292) < 1e-15


def test_focal_loss_normalizer_and_downweighting():
    probs = np.array([[0.9], [0.2]])
    targets = np.array([1.0, 0.0])
    per_element = focal_loss(Tensor(probs), targets).item()
    by_pos = focal_loss(Tensor(probs), targets, normalizer=1.0).item()
    assert abs(by_pos - 2.0 * per_element) < 1e-15
    # well-classified examples contribute far less than hard ones
    easy = focal_loss(Tensor(np.array([[0.99]])), np.array([1.0])).item()
    hard = focal_loss(Tensor(np.array([[0.5]])), np.array([1.0])).item()
    assert hard > 100.0 * easy


def test_diou_loss_frozen_value_and_identity():
    # iou([1,3],[2,5]) = 1/4, center gap 1.5, enclosing span 4:
    # 1 - 0.25 + 2.25/16 = 0.890625
    got = diou_loss(Tensor(np.array([[1.0, 3.0]])), np.array([[2.0, 5.0]])).item()
    assert abs(got - 0.890625) < 1e-15
    same = diou_loss(Tensor(np.array([[2.0, 5.0]])), np.array([[2.0, 5.0]])).item()
    assert abs(same) < 1e-15


def test_diou_loss_gradient_exists_for_disjoint_intervals():
    pred = Tensor(np.array([[0.0, 1.0]]), requires_grad=True)
    with GradientTape() as tape:
        loss = diou_loss(pred, np.array([[5.0, 6.0]]))
    backward(tape, loss, [pred])
    # plain IoU is flat here; the center-distance term still pulls
    assert np.max(np.abs(pred.grad)) > 1e-6


# ---------------------------------------------------------------------------
# the fused detection losses against the composed chains they replaced
# ---------------------------------------------------------------------------


def composed_focal_loss(probs: Tensor, targets: np.ndarray,
                        alpha: float = 0.25, gamma: float = 2.0,
                        normalizer: float | None = None) -> Tensor:
    """The fourteen records ``focal_loss`` replaced."""
    t = np.asarray(targets, dtype=np.float64).reshape(probs.shape)
    p = clip(probs, 1e-7, 1.0 - 1e-7)
    pos = mul(mul(power(sub(Tensor(1.0), p), gamma), log(p)), Tensor(-alpha * t))
    neg = mul(mul(power(p, gamma), log(sub(Tensor(1.0), p))),
              Tensor(-(1.0 - alpha) * (1.0 - t)))
    total = tsum(add(pos, neg))
    if normalizer is None:
        normalizer = float(probs.size)
    return div(total, Tensor(float(normalizer)))


def composed_diou_loss(pred: Tensor, target: np.ndarray) -> Tensor:
    """The twenty-two records ``diou_loss`` replaced."""
    tgt = Tensor(np.asarray(target, dtype=np.float64).reshape(-1, 2))
    ps, pe = take_cols(pred, [0]), take_cols(pred, [1])
    ts, te = take_cols(tgt, [0]), take_cols(tgt, [1])
    inter = relu(sub(minimum(pe, te), maximum(ps, ts)))
    union = sub(add(sub(pe, ps), sub(te, ts)), inter)
    iou = div(inter, union)
    center_gap = sub(mul(add(ps, pe), Tensor(0.5)), mul(add(ts, te), Tensor(0.5)))
    span = sub(maximum(pe, te), minimum(ps, ts))
    penalty = div(mul(center_gap, center_gap), mul(span, span))
    return tmean(add(sub(Tensor(1.0), iou), penalty))


def loss_bytes(loss_fn, leaf: np.ndarray, *args, scale: float, **kwargs):
    """Forward bytes and the leaf's gradient bytes of ``scale`` times the
    loss, so the gradient reaching the loss is not 1."""
    x = Tensor(leaf, requires_grad=True)
    with GradientTape() as tape:
        loss = loss_fn(x, *args, **kwargs)
        total = mul(loss, Tensor(scale))
    backward(tape, total, [x])
    return loss.data.tobytes(), x.grad.tobytes()


@pytest.mark.parametrize("gamma", [2.0, 0.0])
def test_focal_loss_equals_composed_chain_bytes(gamma):
    """Probabilities on and beyond both clip bounds, with and without the
    positive-count normalizer. Soft targets give every element all four
    gradient terms into the clipped probabilities, so their order shows;
    a zero upstream gradient shows the signs of zeros."""
    edges = np.array([0.0, 1e-7, 1.0 - 1e-7, 1.0, -0.25, 1.25, 0.5])
    for seed in range(12):
        rng = np.random.default_rng(seed)
        rows, cols = rng.integers(1, 30), rng.integers(1, 6)
        probs = rng.uniform(0.0, 1.0, size=(rows, cols))
        probs.reshape(-1)[:len(edges)] = edges[:probs.size]
        targets = rng.random((rows, cols))
        if seed % 4 < 2:
            targets = (targets < 0.3).astype(float)
        normalizer = None if seed % 2 else float(max(targets.sum(), 1.0))
        scale = rng.normal() * (1e-3, 1.0, 1e3, 0.0, -0.0)[seed % 5]
        assert loss_bytes(focal_loss, probs, targets, gamma=gamma,
                          normalizer=normalizer, scale=scale) == \
            loss_bytes(composed_focal_loss, probs, targets, gamma=gamma,
                       normalizer=normalizer, scale=scale)


def test_diou_loss_equals_composed_chain_bytes():
    """Ties of the ends and of the starts, disjoint intervals and
    zero-length predictions, among random rows; a zero upstream gradient
    shows the signs of zeros."""
    cases = np.array([
        [[2.0, 5.0], [2.0, 5.0]],   # both ends tie
        [[1.0, 5.0], [2.0, 5.0]],   # pe == te
        [[2.0, 4.0], [2.0, 5.0]],   # ps == ts
        [[0.0, 1.0], [5.0, 6.0]],   # disjoint, before
        [[7.0, 9.0], [2.0, 5.0]],   # disjoint, after
        [[1.0, 2.0], [2.0, 5.0]],   # touching
        [[3.0, 3.0], [2.0, 5.0]],   # zero length, inside
        [[7.0, 7.0], [2.0, 5.0]],   # zero length, outside
        [[2.0, 2.0], [2.0, 5.0]],   # zero length on the start
    ])
    for seed in range(12):
        rng = np.random.default_rng(seed)
        extra = rng.integers(0, 20)
        starts = rng.uniform(0.0, 10.0, size=(extra, 2))
        lengths = rng.uniform(0.0, 4.0, size=(extra, 2))
        random_rows = np.stack([starts, starts + lengths], axis=2)
        rows = np.concatenate([cases, random_rows])[rng.permutation(
            len(cases) + extra)]
        pred, target = rows[:, 0], rows[:, 1]
        scale = rng.normal() * (1e-3, 1.0, 1e3, 0.0, -0.0)[seed % 5]
        assert loss_bytes(diou_loss, pred, target, scale=scale) == \
            loss_bytes(composed_diou_loss, pred, target, scale=scale)


def test_loss_gradients_finite_difference():
    rng = np.random.default_rng(10)
    logits = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    targets = (rng.random((4, 3)) < 0.5).astype(float)

    def bce_loss():
        return bce_with_logits(logits, targets)

    assert finite_diff_check(bce_loss, [logits], rel_tol=1e-5) < 1e-5

    probs = Tensor(rng.uniform(0.1, 0.9, size=(4, 3)), requires_grad=True)

    def foc_loss():
        return focal_loss(probs, targets, normalizer=3.0)

    assert finite_diff_check(foc_loss, [probs], rel_tol=1e-5) < 1e-5

    pred = Tensor(np.array([[1.0, 3.0], [0.0, 2.0]]), requires_grad=True)

    def box_loss():
        return diou_loss(pred, np.array([[2.0, 5.0], [0.5, 1.5]]))

    assert finite_diff_check(box_loss, [pred], rel_tol=1e-5) < 1e-5
