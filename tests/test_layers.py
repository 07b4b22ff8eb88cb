"""Graph layer tests.

Every layer's vectorized forward is compared against a dense per-node
double loop written directly from the update equations, on random
graphs. The time-direction layer additionally gets exact algebraic
identity checks (no-neighbor reduction, gate pass-through at init, sign
antisymmetry, cancellation of mirrored neighbors) and finite-difference
gradient checks.
"""

import numpy as np
import pytest

from tgk.autodiff import GradientTape, Tensor, backward, mul, tsum
from tgk.graph import build_graph
from tgk.layers import (
    LAYER_KINDS,
    GatParams,
    GcnParams,
    SageParams,
    SgcnParams,
    TdgcParams,
    _loop_degrees,
    gat_forward,
    gcn_forward,
    sage_forward,
    sgcn_forward,
    sinusoidal_pe,
    tdgc_forward,
)

from oracle_ops import finite_diff_check


def random_graph(rng, n=12, d=4, window=2.5, videos=2):
    sizes = rng.multinomial(n - videos, np.ones(videos) / videos) + 1
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    positions = np.concatenate([
        np.sort(rng.uniform(0, 10, size=s)) for s in sizes
    ])
    feats = rng.normal(size=(bounds[-1], d))
    return build_graph(feats, positions, bounds, threshold_s=window)


def oracle_graphs(rng, count):
    """``count`` random graphs, then one with its nodes spaced wider than
    the window, so every layer also runs on a graph with no edges."""
    for _ in range(count):
        yield random_graph(rng)
    g = build_graph(rng.normal(size=(5, 4)), np.arange(0.0, 50.0, 10.0),
                    threshold_s=2.5)
    assert len(g.edges) == 0
    yield g


def leaky(x, slope=0.2):
    return np.where(x > 0, x, slope * x)


def gate_oracle(p, abs_dt):
    h = np.array([[abs_dt]])
    return np.maximum(h @ p.gate_w.data + p.gate_b.data, 0.0)[0]


def tdgc_oracle(p, g, x):
    out = x @ p.w_root.data + p.b_root.data
    h = np.maximum(x @ p.w_nbr.data + p.b_nbr.data, 0.0)
    for i in range(g.num_nodes):
        nbrs = g.edges[g.edges[:, 0] == i, 1]
        if len(nbrs) == 0:
            continue
        acc = np.zeros(out.shape[1])
        for j in nbrs:
            msg = h[j].copy()
            dt = g.positions_s[i] - g.positions_s[j]
            if not p.disable_gate:
                msg = msg * gate_oracle(p, abs(dt))
            if not p.disable_sign:
                msg = msg * np.sign(dt)
            acc += msg
        out[i] += acc / len(nbrs)
    return out


def gcn_oracle(p, g, x):
    h = x @ p.w.data
    deg = np.ones(g.num_nodes)
    for s, _ in g.edges:
        deg[s] += 1.0
    out = h / deg[:, None]
    for s, d in g.edges:
        out[s] += h[d] / np.sqrt(deg[s] * deg[d])
    return out + p.b.data


def gat_oracle(p, g, x):
    h = x @ p.w.data
    out = np.zeros_like(h)
    for i in range(g.num_nodes):
        nbrs = list(g.edges[g.edges[:, 0] == i, 1]) + [i]
        scores = np.array([
            leaky(float(h[i] @ p.a_src.data[:, 0] + h[j] @ p.a_dst.data[:, 0]))
            for j in nbrs
        ])
        alpha = np.exp(scores - scores.max())
        alpha /= alpha.sum()
        out[i] = sum(a * h[j] for a, j in zip(alpha, nbrs))
    return out + p.b.data


def sage_oracle(p, g, x):
    out = x @ p.w_root.data + p.b.data
    h = x @ p.w_nbr.data
    for i in range(g.num_nodes):
        nbrs = g.edges[g.edges[:, 0] == i, 1]
        if len(nbrs):
            out[i] += h[nbrs].mean(axis=0)
    return out


def sgcn_oracle(p, g, x):
    hp = x @ p.w_past.data
    hf = x @ p.w_future.data
    deg = np.ones(g.num_nodes)
    for s, _ in g.edges:
        deg[s] += 1.0
    out = hp / deg[:, None]
    for s, d in g.edges:
        h = hp[d] if g.positions_s[d] <= g.positions_s[s] else hf[d]
        out[s] += h / np.sqrt(deg[s] * deg[d])
    return out + p.b.data


# ---------------------------------------------------------------------------
# vectorized forwards against dense loops
# ---------------------------------------------------------------------------


def test_tdgc_matches_dense_loop():
    rng = np.random.default_rng(0)
    for _ in range(8):
        g = random_graph(rng)
        p = TdgcParams.init(rng, 4, 5)
        # move the gate off its identity start so the oracle covers it
        for t in (p.gate_w, p.gate_b):
            t.data += rng.normal(scale=0.3, size=t.shape)
        got = tdgc_forward(p, g, Tensor(g.features)).data
        assert np.allclose(got, tdgc_oracle(p, g, g.features), atol=1e-12)


def test_tdgc_ablation_flags_match_dense_loop():
    rng = np.random.default_rng(1)
    for flags in [(True, False), (False, True), (True, True)]:
        g = random_graph(rng)
        p = TdgcParams.init(rng, 4, 5, disable_sign=flags[0], disable_gate=flags[1])
        for t in (p.gate_w, p.gate_b):
            t.data += rng.normal(scale=0.3, size=t.shape)
        got = tdgc_forward(p, g, Tensor(g.features)).data
        assert np.allclose(got, tdgc_oracle(p, g, g.features), atol=1e-12)


def test_loop_degrees_equal_add_at_loop():
    rng = np.random.default_rng(6)
    for n, window in ((1, 2.5), (12, 0.01), (12, 2.5), (30, 6.0)):
        g = random_graph(rng, n=n, window=window, videos=1)
        deg = np.ones(g.num_nodes)
        if len(g.edges):
            np.add.at(deg, g.edges[:, 0], 1.0)
        assert _loop_degrees(g).tobytes() == deg.tobytes()


def test_gcn_matches_dense_loop():
    rng = np.random.default_rng(2)
    for g in oracle_graphs(rng, 5):
        p = GcnParams.init(rng, 4, 6)
        got = gcn_forward(p, g, Tensor(g.features)).data
        assert np.allclose(got, gcn_oracle(p, g, g.features), atol=1e-12)


def test_gat_matches_dense_loop():
    rng = np.random.default_rng(3)
    for g in oracle_graphs(rng, 5):
        p = GatParams.init(rng, 4, 6)
        got = gat_forward(p, g, Tensor(g.features)).data
        assert np.allclose(got, gat_oracle(p, g, g.features), atol=1e-10)


def test_sage_matches_dense_loop():
    rng = np.random.default_rng(4)
    for g in oracle_graphs(rng, 5):
        p = SageParams.init(rng, 4, 6)
        got = sage_forward(p, g, Tensor(g.features)).data
        assert np.allclose(got, sage_oracle(p, g, g.features), atol=1e-12)


def test_sgcn_matches_dense_loop():
    rng = np.random.default_rng(5)
    for g in oracle_graphs(rng, 5):
        p = SgcnParams.init(rng, 4, 6)
        got = sgcn_forward(p, g, Tensor(g.features)).data
        assert np.allclose(got, sgcn_oracle(p, g, g.features), atol=1e-12)


# ---------------------------------------------------------------------------
# algebraic identities of the time-direction layer
# ---------------------------------------------------------------------------


def test_tdgc_no_neighbors_reduces_to_root_projection():
    rng = np.random.default_rng(6)
    feats = rng.normal(size=(5, 4))
    g = build_graph(feats, np.arange(0.0, 50.0, 10.0), threshold_s=1.0)
    assert len(g.edges) == 0
    p = TdgcParams.init(rng, 4, 3)
    got = tdgc_forward(p, g, Tensor(feats)).data
    assert np.array_equal(got, feats @ p.w_root.data + p.b_root.data)


def test_tdgc_gate_is_identity_at_init():
    rng = np.random.default_rng(7)
    g = random_graph(rng)
    state = rng.bit_generator.state
    p = TdgcParams.init(np.random.default_rng(99), 4, 3)
    rng.bit_generator.state = state
    with_gate = tdgc_forward(p, g, Tensor(g.features)).data
    p.disable_gate = True
    without = tdgc_forward(p, g, Tensor(g.features)).data
    assert np.array_equal(with_gate, without)


def test_tdgc_sign_antisymmetric_under_time_reversal():
    rng = np.random.default_rng(8)
    feats = rng.normal(size=(8, 4))
    positions = np.sort(rng.uniform(0, 8, size=8))
    g_fwd = build_graph(feats, positions, threshold_s=2.0)
    g_rev = build_graph(feats, -positions, threshold_s=2.0)
    p = TdgcParams.init(rng, 4, 3)
    root = feats @ p.w_root.data + p.b_root.data
    out_fwd = tdgc_forward(p, g_fwd, Tensor(feats)).data
    out_rev = tdgc_forward(p, g_rev, Tensor(feats)).data
    # reversing time flips every message sign, so the aggregate negates
    assert np.allclose(out_fwd - root, -(out_rev - root), atol=1e-12)
    # with the sign disabled the layer cannot tell the directions apart
    p.disable_sign = True
    out_fwd = tdgc_forward(p, g_fwd, Tensor(feats)).data
    out_rev = tdgc_forward(p, g_rev, Tensor(feats)).data
    assert np.allclose(out_fwd, out_rev, atol=1e-12)


def test_tdgc_mirrored_neighbors_cancel():
    rng = np.random.default_rng(9)
    shared = rng.normal(size=4)
    feats = np.stack([shared, rng.normal(size=4), shared])
    g = build_graph(feats, np.array([0.0, 1.0, 2.0]), threshold_s=1.5)
    p = TdgcParams.init(rng, 4, 3)
    out = tdgc_forward(p, g, Tensor(feats)).data
    root = feats @ p.w_root.data + p.b_root.data
    # the middle node sees identical features one step in the past and one
    # step in the future; their signed gated messages cancel exactly
    assert np.allclose(out[1], root[1], atol=1e-12)
    assert not np.allclose(out[0], root[0], atol=1e-6)


# ---------------------------------------------------------------------------
# gradients through every layer kind
# ---------------------------------------------------------------------------


def test_layer_gradients_finite_difference():
    rng = np.random.default_rng(10)
    g = random_graph(rng, n=10, d=3)
    x = Tensor(g.features, requires_grad=True)
    for name, kind in LAYER_KINDS.items():
        p = kind.init(np.random.default_rng(11), 3, 4)
        if name == "tdgc":
            for t in (p.gate_w, p.gate_b):
                t.data += np.abs(rng.normal(scale=0.2, size=t.shape)) + 0.05
        weights = Tensor(rng.normal(size=(g.num_nodes, 4)))

        def build_loss():
            return tsum(mul(kind.forward(p, g, x), weights))

        worst = finite_diff_check(build_loss, p.params() + [x], rel_tol=1e-5)
        assert worst < 1e-5, f"{name}: {worst}"


# ---------------------------------------------------------------------------
# sinusoidal time encoding
# ---------------------------------------------------------------------------


def test_sinusoidal_pe_values():
    t = np.array([0.0, 1.0, 13.7])
    d = 8
    pe = sinusoidal_pe(t, d)
    assert pe.shape == (3, d)
    freqs = 1.0 / (10000.0 ** (2.0 * np.arange(d // 2) / d))
    for row, ts in enumerate(t):
        assert np.allclose(pe[row, 0::2], np.sin(ts * freqs), atol=1e-15)
        assert np.allclose(pe[row, 1::2], np.cos(ts * freqs), atol=1e-15)
    assert np.array_equal(pe[0, 0::2], np.zeros(d // 2))
    assert np.array_equal(pe[0, 1::2], np.ones(d // 2))


def test_sinusoidal_pe_rejects_odd_dim():
    with pytest.raises(ValueError):
        sinusoidal_pe(np.array([1.0]), 7)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


def test_layer_registry_complete_and_consistent():
    assert set(LAYER_KINDS) == {"tdgc", "gcn", "gat", "sage", "sage-pe", "sgcn"}
    for name, kind in LAYER_KINDS.items():
        assert kind.name == name
        assert callable(kind.init) and callable(kind.forward)
    assert LAYER_KINDS["sage-pe"].adds_time_encoding
    assert not LAYER_KINDS["sage"].adds_time_encoding


def test_all_layers_share_forward_contract():
    rng = np.random.default_rng(13)
    g = random_graph(rng, n=9, d=5)
    for kind in LAYER_KINDS.values():
        p = kind.init(rng, 5, 7)
        out = kind.forward(p, g, Tensor(g.features))
        assert out.shape == (g.num_nodes, 7)
