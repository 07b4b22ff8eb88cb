"""Backbone pyramid tests: stage shapes, coarsening law, pooled feature
paths, and differentiability through the full stack."""

import numpy as np
import pytest

from tgk.autodiff import (
    GradientTape, Tensor, backward, gather_rows, mul, segment_max,
    segment_mean, tsum,
)
from tgk.graph import VideoCache, build_graph, subsample_plan
from tgk.hierarchy import (
    BackboneConfig,
    BackboneParams,
    backbone_forward,
    pool_closed_neighborhood,
)
from tgk.layers import TdgcParams, sinusoidal_pe

from oracle_ops import finite_diff_check


def make_graph(rng, sizes, d=6, spacing=1.0, window=1.5):
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    positions = np.concatenate([
        np.arange(s, dtype=np.float64) * spacing for s in sizes
    ])
    feats = rng.normal(size=(int(bounds[-1]), d))
    return build_graph(feats, positions, bounds, threshold_s=window)


# ---------------------------------------------------------------------------
# stage structure
# ---------------------------------------------------------------------------


def test_node_counts_follow_ceil_halving():
    rng = np.random.default_rng(0)
    cfg = BackboneConfig(d_in=6, d_model=8, num_stages=4)
    params = BackboneParams.init(rng, cfg)
    g = make_graph(rng, [64])
    outs = backbone_forward(params, cfg, g)
    assert [o.graph.num_nodes for o in outs] == [64, 32, 16, 8]
    assert [o.graph.stage for o in outs] == [1, 2, 3, 4]
    for o in outs:
        assert o.features.shape == (o.graph.num_nodes, 8)

    # odd sizes round up at every level
    g = make_graph(rng, [13])
    outs = backbone_forward(params, cfg, g)
    assert [o.graph.num_nodes for o in outs] == [13, 7, 4, 2]


def test_ceil_halving_per_video_in_batches():
    rng = np.random.default_rng(1)
    cfg = BackboneConfig(d_in=6, d_model=8, num_stages=3)
    params = BackboneParams.init(rng, cfg)
    g = make_graph(rng, [9, 6, 5])
    outs = backbone_forward(params, cfg, g)
    for o, expected in zip(outs, [[9, 6, 5], [5, 3, 3], [3, 2, 2]]):
        counts = np.diff(o.graph.video_boundaries).tolist()
        assert counts == expected


def test_positions_stay_in_seconds_and_window_doubles():
    rng = np.random.default_rng(2)
    cfg = BackboneConfig(d_in=6, d_model=8, num_stages=3, threshold_s=1.5)
    params = BackboneParams.init(rng, cfg)
    g = make_graph(rng, [16], spacing=1.0, window=1.5)
    outs = backbone_forward(params, cfg, g)
    # survivors keep their original timestamps, never rescaled
    assert np.array_equal(outs[1].graph.positions_s, np.arange(0.0, 16.0, 2.0))
    assert np.array_equal(outs[2].graph.positions_s, np.arange(0.0, 16.0, 4.0))
    # stage l window is threshold * 2^(l-1): brute-check stage edges
    for o in outs:
        window = 1.5 * 2.0 ** (o.graph.stage - 1)
        pos = o.graph.positions_s
        expected = sorted(
            (i, j)
            for i in range(len(pos))
            for j in range(len(pos))
            if i != j and abs(pos[i] - pos[j]) < window
        )
        assert sorted(map(tuple, o.graph.edges.tolist())) == expected
        assert len(o.graph.edges) > 0


def test_backbone_rejects_coarse_input_graph():
    rng = np.random.default_rng(3)
    cfg = BackboneConfig(d_in=6, d_model=8, num_stages=2)
    params = BackboneParams.init(rng, cfg)
    g = make_graph(rng, [8])
    g.stage = 2
    with pytest.raises(ValueError):
        backbone_forward(params, cfg, g)


def test_first_layer_maps_d_in_rest_d_model():
    rng = np.random.default_rng(4)
    cfg = BackboneConfig(d_in=5, d_model=9, num_stages=2, layers_per_stage=2)
    params = BackboneParams.init(rng, cfg)
    assert params.stages[0][0].w_root.shape == (5, 9)
    assert params.stages[0][1].w_root.shape == (9, 9)
    assert params.stages[1][0].w_root.shape == (9, 9)
    assert len(params.params()) == sum(
        len(lp.params()) for block in params.stages for lp in block
    )


@pytest.mark.parametrize("kind, switch", [
    ("tdgc-no-sign", "disable_sign"), ("tdgc-no-gate", "disable_gate"),
])
def test_tdgc_variant_backbone_is_tdgc_with_one_switch_off(kind, switch):
    # the same draws, in the same order, as TdgcParams.init with the switch
    cfg = BackboneConfig(layer_kind=kind, d_in=5, d_model=9, num_stages=2)
    params = BackboneParams.init(np.random.default_rng(4), cfg)
    rng = np.random.default_rng(4)
    expected = [TdgcParams.init(rng, d_in, 9, **{switch: True})
                for d_in in (5, 9, 9, 9)]
    got = [lp for block in params.stages for lp in block]
    for lp, want in zip(got, expected, strict=True):
        assert (lp.disable_sign, lp.disable_gate) == (
            want.disable_sign, want.disable_gate)
        for a, b in zip(lp.params(), want.params(), strict=True):
            assert a.data.tobytes() == b.data.tobytes()


# ---------------------------------------------------------------------------
# closed-neighborhood pooling
# ---------------------------------------------------------------------------


def test_pool_closed_neighborhood_mean_oracle():
    rng = np.random.default_rng(5)
    g = make_graph(rng, [6], window=1.5)
    x = Tensor(g.features)
    pooled = pool_closed_neighborhood(x, g, "mean", np.arange(6)).data
    for i in range(6):
        members = sorted(set(g.edges[g.edges[:, 0] == i, 1]) | {i})
        assert np.allclose(pooled[i], g.features[members].mean(axis=0), atol=1e-12)


def test_pool_closed_neighborhood_max_oracle():
    rng = np.random.default_rng(6)
    g = make_graph(rng, [6], window=1.5)
    pooled = pool_closed_neighborhood(Tensor(g.features), g, "max",
                                      np.arange(6)).data
    for i in range(6):
        members = sorted(set(g.edges[g.edges[:, 0] == i, 1]) | {i})
        assert np.array_equal(pooled[i], g.features[members].max(axis=0))


def test_pool_isolated_node_keeps_own_features():
    feats = np.array([[1.0, 2.0], [3.0, 4.0]])
    g = build_graph(feats, np.array([0.0, 100.0]), threshold_s=1.0)
    for how in ("mean", "max"):
        pooled = pool_closed_neighborhood(Tensor(feats), g, how,
                                          np.arange(2)).data
        assert np.array_equal(pooled, feats)


def test_pool_rejects_unknown_mode():
    g = build_graph(np.zeros((2, 2)), np.arange(2.0))
    with pytest.raises(ValueError):
        pool_closed_neighborhood(Tensor(g.features), g, "sum", np.arange(2))


def _pool_then_gather(x, g, how, keep_idx):
    """Every node pooled over its closed neighbourhood, then the survivors
    gathered: the byte oracle of survivors-only pooling."""
    loops = np.arange(g.num_nodes, dtype=np.intp)
    src = np.concatenate([g.edges[:, 0], loops])
    msg = gather_rows(x, np.concatenate([g.edges[:, 1], loops]))
    reduce = segment_mean if how == "mean" else segment_max
    return gather_rows(reduce(msg, src, g.num_nodes), keep_idx)


def test_survivors_pooling_equals_pool_then_gather_bytes():
    """Pooling only the survivors' closed neighbourhoods gives the bytes
    of pooling every node and gathering the survivors, forward and in the
    input gradient: batches of several videos of different lengths, with
    the topology a ``VideoCache`` builds or the graph's own, isolated
    nodes, signed zeros."""
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    settings = hyp.settings(max_examples=150, deadline=None,
                            derandomize=True, database=None,
                            phases=[p for p in hyp.Phase
                                    if p is not hyp.Phase.shrink])
    grid = (0.0, -0.0, 1.0, -1.0, 0.5, -0.3, 5e-324, 1e300, -1e300)
    number = st.one_of(st.sampled_from(grid), st.floats(-1e3, 1e3))

    @st.composite
    def problems(draw):
        sizes = draw(st.lists(st.integers(1, 9), min_size=1, max_size=3))
        n = sum(sizes)
        positions = np.concatenate([np.sort(np.array(draw(st.lists(
            st.floats(0.0, 8.0), min_size=k, max_size=k)))) for k in sizes])
        values = [np.array(draw(st.lists(number, min_size=2 * n,
                                         max_size=2 * n))).reshape(n, 2)
                  for _ in range(2)]
        return (sizes, positions, *values, draw(st.floats(0.5, 4.0)),
                draw(st.sampled_from(("mean", "max"))), draw(st.booleans()))

    @settings
    @hyp.given(problems())
    @np.errstate(all="ignore")
    def check(problem):
        sizes, positions, feats, upstream, window, how, cached = problem
        bounds = np.cumsum([0] + sizes)
        g = build_graph(feats, positions, bounds, window)
        if cached:
            g = VideoCache().graph(feats, positions, bounds, 1, window,
                                   lambda video: build_graph(
                                       video.features, video.positions_s,
                                       threshold_s=window))
        keep_idx, _ = subsample_plan(g, how)
        got = []
        for pool in (pool_closed_neighborhood, _pool_then_gather):
            x = Tensor(feats, requires_grad=True)
            with GradientTape() as tape:
                out = pool(x, g, how, keep_idx)
                loss = tsum(mul(out, Tensor(upstream[:len(keep_idx)])))
            backward(tape, loss, [x])
            got.append((out.data.tobytes(), x.grad.tobytes()))
        assert got[0] == got[1]

    check()


def test_skip_pooling_copies_survivor_features():
    rng = np.random.default_rng(7)
    cfg = BackboneConfig(d_in=4, d_model=4, num_stages=2, layers_per_stage=1,
                         pooling="video-ss")
    params = BackboneParams.init(rng, cfg)
    g = make_graph(rng, [8], d=4)
    outs = backbone_forward(params, cfg, g)
    # stage 2 input nodes are stage-1 outputs at even indices, unpooled
    stage1 = outs[0].features.data
    kind = cfg.kind
    expected_in = stage1[[0, 2, 4, 6]]
    got = kind.forward(params.stages[1][0], outs[1].graph, Tensor(expected_in)).data
    assert np.allclose(outs[1].features.data, got, atol=1e-12)


# ---------------------------------------------------------------------------
# time-encoding variant
# ---------------------------------------------------------------------------


def test_sage_pe_adds_encoding_each_stage():
    rng = np.random.default_rng(8)
    cfg_pe = BackboneConfig(layer_kind="sage-pe", d_in=6, d_model=6,
                            num_stages=1, layers_per_stage=1)
    cfg_plain = BackboneConfig(layer_kind="sage", d_in=6, d_model=6,
                               num_stages=1, layers_per_stage=1)
    params = BackboneParams.init(np.random.default_rng(9), cfg_pe)
    g = make_graph(rng, [5], d=6)
    out_pe = backbone_forward(params, cfg_pe, g)[0].features.data
    out_plain = backbone_forward(params, cfg_plain, g)[0].features.data
    shifted = g.features + sinusoidal_pe(g.positions_s, 6)
    g_shifted = build_graph(shifted, g.positions_s, g.video_boundaries)
    expected = backbone_forward(params, cfg_plain, g_shifted)[0].features.data
    assert np.allclose(out_pe, expected, atol=1e-12)
    assert not np.allclose(out_pe, out_plain, atol=1e-6)


# ---------------------------------------------------------------------------
# differentiability end to end
# ---------------------------------------------------------------------------


def test_gradient_flows_through_all_stages():
    rng = np.random.default_rng(10)
    cfg = BackboneConfig(d_in=4, d_model=5, num_stages=3, layers_per_stage=1)
    params = BackboneParams.init(rng, cfg)
    g = make_graph(rng, [10, 7], d=4)
    with GradientTape() as tape:
        outs = backbone_forward(params, cfg, g)
        loss = tsum(outs[-1].features)
    backward(tape, loss, leaves=params.params())
    # the stage-1 block feeds the coarse stages, so its weights get signal
    first = params.stages[0][0]
    assert np.max(np.abs(first.w_root.grad)) > 0.0
    assert all(p.grad.shape == p.shape for p in params.params())


def test_backbone_gradients_finite_difference_mean_and_max():
    rng = np.random.default_rng(11)
    for pooling in ("mean", "max"):
        cfg = BackboneConfig(d_in=3, d_model=4, num_stages=2,
                             layers_per_stage=1, pooling=pooling)
        params = BackboneParams.init(np.random.default_rng(12), cfg)
        g = make_graph(rng, [7], d=3)
        weights = Tensor(rng.normal(size=(4, 4)))

        def build_loss():
            outs = backbone_forward(params, cfg, g)
            return tsum(mul(outs[-1].features, weights))

        worst = finite_diff_check(build_loss, params.params(), rel_tol=1e-5)
        assert worst < 1e-5, f"{pooling}: {worst}"
