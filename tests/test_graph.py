"""Temporal-graph construction, halving, and on-disk format tests.

Edge sets are checked against a brute-force double loop over node pairs,
and the halving plan against directly computed even-index survivors.
Halving itself is checked on the path the backbone runs: the survivor
plan, closed-neighborhood pooling, and a 2-stage ``backbone_forward``.
"""

import json
import re
from dataclasses import replace

import numpy as np
import pytest

from tgk.autodiff import Tensor
from tgk.graph import (
    TemporalGraph,
    build_graph,
    load_features,
    load_rows,
    rebuild_edges,
    save_features,
    save_rows,
    stage_scale,
    subsample_plan,
)
from tgk.hierarchy import (
    BackboneConfig, BackboneParams, backbone_forward, pool_closed_neighborhood,
)


def brute_force_edges(positions, boundaries, window):
    video = np.zeros(len(positions), dtype=int)
    for v in range(len(boundaries) - 1):
        video[boundaries[v]:boundaries[v + 1]] = v
    pairs = []
    for i in range(len(positions)):
        for j in range(len(positions)):
            if i == j or video[i] != video[j]:
                continue
            if abs(positions[i] - positions[j]) < window:
                pairs.append((i, j))
    return sorted(pairs)


def edge_set(g):
    return sorted(map(tuple, g.edges.tolist()))


# ---------------------------------------------------------------------------
# edge construction
# ---------------------------------------------------------------------------


def test_edges_match_brute_force_random_batches():
    rng = np.random.default_rng(0)
    for _ in range(20):
        sizes = rng.integers(1, 9, size=rng.integers(1, 4))
        bounds = np.concatenate([[0], np.cumsum(sizes)])
        positions = np.concatenate([
            np.sort(rng.uniform(0, 20, size=s)) for s in sizes
        ])
        feats = rng.normal(size=(bounds[-1], 3))
        window = float(rng.uniform(0.5, 6.0))
        g = build_graph(feats, positions, bounds, threshold_s=window)
        assert edge_set(g) == brute_force_edges(positions, bounds, window)


def test_edges_are_symmetric_and_loop_free():
    rng = np.random.default_rng(1)
    positions = np.sort(rng.uniform(0, 30, size=40))
    g = build_graph(rng.normal(size=(40, 2)), positions, threshold_s=3.0)
    pairs = set(map(tuple, g.edges.tolist()))
    assert all((b, a) in pairs for a, b in pairs)
    assert all(a != b for a, b in pairs)


def test_edges_never_cross_video_boundaries():
    positions = np.array([0.0, 1.0, 0.5, 1.5])
    bounds = np.array([0, 2, 4])
    g = build_graph(np.zeros((4, 2)), positions, bounds, threshold_s=100.0)
    video = g.video_of()
    assert len(g.edges) == 4
    assert all(video[a] == video[b] for a, b in g.edges)


def test_threshold_is_strict():
    positions = np.array([0.0, 2.0, 4.0])
    g = build_graph(np.zeros((3, 1)), positions, threshold_s=2.0)
    # gaps of exactly 2.0 are excluded by the strict comparison
    assert len(g.edges) == 0
    g = build_graph(np.zeros((3, 1)), positions, threshold_s=2.0 + 1e-9)
    assert edge_set(g) == [(0, 1), (1, 0), (1, 2), (2, 1)]


def test_stage_widens_window_by_doubling():
    positions = np.arange(6, dtype=np.float64)
    feats = np.zeros((6, 1))
    by_stage = {}
    for stage in (1, 2, 3):
        g = build_graph(feats, positions, threshold_s=1.5, stage=stage)
        by_stage[stage] = edge_set(g)
        window = 1.5 * 2.0 ** (stage - 1)
        assert by_stage[stage] == brute_force_edges(positions, [0, 6], window)
    assert len(by_stage[1]) < len(by_stage[2]) < len(by_stage[3])


def test_stage_scale_values():
    assert [stage_scale(s) for s in (1, 2, 3, 4)] == [1.0, 2.0, 4.0, 8.0]
    assert all(type(stage_scale(s)) is float for s in (1, 2, 3, 4))
    for bad in (0, -1):
        with pytest.raises(ValueError, match=f"stage must be >= 1, got {bad}"):
            stage_scale(bad)


def test_single_node_video_has_no_edges():
    g = build_graph(np.zeros((1, 4)), np.array([3.0]))
    assert g.edges.shape == (0, 2)


# ---------------------------------------------------------------------------
# graph container invariants
# ---------------------------------------------------------------------------


def test_graph_validates_boundary_and_position_shapes():
    with pytest.raises(ValueError):
        TemporalGraph(np.zeros((3, 2)), np.zeros(2), np.empty((0, 2)))
    with pytest.raises(ValueError):
        TemporalGraph(np.zeros((3, 2)), np.zeros(3), np.empty((0, 2)),
                      video_boundaries=np.array([0, 2]))
    with pytest.raises(ValueError):
        TemporalGraph(np.zeros((3, 2)), np.zeros(3), np.empty((0, 2)),
                      video_boundaries=np.array([1, 3]))


def test_video_of_and_slices():
    g = TemporalGraph(np.zeros((5, 1)), np.arange(5.0), np.empty((0, 2)),
                      video_boundaries=np.array([0, 2, 5]))
    assert np.array_equal(g.video_of(), [0, 0, 1, 1, 1])
    assert g.video_slice(0) == slice(0, 2)
    assert g.video_slice(1) == slice(2, 5)
    assert g.num_videos == 2


def test_video_of_equals_boundary_loop():
    rng = np.random.default_rng(4)
    for sizes in ([], [0], [3], [2, 0, 5], list(rng.integers(0, 6, 30))):
        bounds = np.cumsum([0] + list(sizes))
        n = int(bounds[-1])
        g = TemporalGraph(np.zeros((n, 1)), np.zeros(n), np.empty((0, 2)),
                          video_boundaries=bounds)
        loop = np.zeros(n, dtype=np.intp)
        for v in range(len(sizes)):
            loop[bounds[v]:bounds[v + 1]] = v
        assert g.video_of().dtype == loop.dtype
        assert np.array_equal(g.video_of(), loop)


# ---------------------------------------------------------------------------
# halving
# ---------------------------------------------------------------------------


def test_subsample_plan_keeps_even_local_indices():
    g = TemporalGraph(np.zeros((7, 1)), np.arange(7.0), np.empty((0, 2)),
                      video_boundaries=np.array([0, 3, 7]))
    keep, bounds = subsample_plan(g, "mean")
    assert np.array_equal(keep, [0, 2, 3, 5])
    assert np.array_equal(bounds, [0, 2, 4])


def test_subsample_plan_batch_alternation():
    # second video starts at odd offset 3, so batch-ss keeps global evens
    g = TemporalGraph(np.zeros((7, 1)), np.arange(7.0), np.empty((0, 2)),
                      video_boundaries=np.array([0, 3, 7]))
    keep, bounds = subsample_plan(g, "batch-ss")
    assert np.array_equal(keep, [0, 2, 4, 6])
    assert np.array_equal(bounds, [0, 2, 4])


def two_stage(g: TemporalGraph, pooling: str = "mean",
              threshold_s: float = 2.0):
    """Stage outputs of a 2-stage backbone over ``g``; the second stage's
    graph carries the survivors of one halving as its features."""
    d = g.features.shape[1]
    cfg = BackboneConfig(d_in=d, d_model=d, num_stages=2, layers_per_stage=1,
                         pooling=pooling, threshold_s=threshold_s)
    params = BackboneParams.init(np.random.default_rng(0), cfg)
    return backbone_forward(params, cfg, g)


def pooled_survivors(g: TemporalGraph, how: str) -> np.ndarray:
    keep, _ = subsample_plan(g, how)
    return pool_closed_neighborhood(Tensor(g.features), g, how, keep).data


def test_subsample_ceil_halves_every_video():
    rng = np.random.default_rng(2)
    for _ in range(10):
        sizes = rng.integers(1, 12, size=3)
        bounds = np.concatenate([[0], np.cumsum(sizes)])
        positions = np.concatenate([np.arange(s, dtype=np.float64) for s in sizes])
        g = build_graph(rng.normal(size=(bounds[-1], 2)), positions, bounds)
        h = two_stage(g, "mean")[1].graph
        for v in range(3):
            n_before = bounds[v + 1] - bounds[v]
            n_after = h.video_boundaries[v + 1] - h.video_boundaries[v]
            assert n_after == (n_before + 1) // 2
        assert h.stage == g.stage + 1


def test_subsample_mean_pools_closed_neighborhood():
    positions = np.array([0.0, 1.0, 2.0, 3.0])
    feats = np.array([[1.0], [2.0], [4.0], [8.0]])
    g = build_graph(feats, positions, threshold_s=1.5)
    # node 0 pools {0, 1}; node 2 pools {1, 2, 3}
    assert np.allclose(pooled_survivors(g, "mean"), [[1.5], [14.0 / 3.0]],
                       atol=1e-12)
    outs = two_stage(g, "mean", threshold_s=1.5)
    assert np.array_equal(outs[1].graph.positions_s, [0.0, 2.0])
    # the backbone feeds stage 2 the pooled survivors of stage 1's output
    stage1 = TemporalGraph(outs[0].features.data, positions, g.edges)
    assert np.array_equal(outs[1].graph.features,
                          pooled_survivors(stage1, "mean"))


def test_subsample_max_pools_closed_neighborhood():
    positions = np.array([0.0, 1.0, 2.0])
    feats = np.array([[1.0, 5.0], [2.0, 4.0], [9.0, 0.0]])
    g = build_graph(feats, positions, threshold_s=1.5)
    assert np.array_equal(pooled_survivors(g, "max"), [[2.0, 5.0], [9.0, 4.0]])
    outs = two_stage(g, "max", threshold_s=1.5)
    stage1 = TemporalGraph(outs[0].features.data, positions, g.edges)
    assert np.array_equal(outs[1].graph.features,
                          pooled_survivors(stage1, "max"))


def test_subsample_skip_variants_copy_raw_features():
    rng = np.random.default_rng(3)
    feats = rng.normal(size=(6, 2))
    g = build_graph(feats, np.arange(6.0))
    for pooling in ("video-ss", "batch-ss"):
        outs = two_stage(g, pooling)
        assert np.array_equal(outs[1].graph.features,
                              outs[0].features.data[[0, 2, 4]])


def test_subsample_rebuilds_edges_for_wider_window():
    positions = np.arange(8, dtype=np.float64)
    g = build_graph(np.zeros((8, 1)), positions, threshold_s=1.5)
    h = two_stage(g, "mean", threshold_s=1.5)[1].graph
    # survivors sit 2 s apart; the stage-2 window 3.0 links adjacent ones
    assert edge_set(h) == brute_force_edges(h.positions_s, [0, 4], 3.0)
    assert len(h.edges) > 0


def test_subsample_rejects_unknown_pooling():
    g = build_graph(np.zeros((4, 1)), np.arange(4.0))
    with pytest.raises(ValueError):
        two_stage(g, "median")
    with pytest.raises(ValueError):
        subsample_plan(g, "median")


def test_rebuild_edges_preserves_nodes():
    rng = np.random.default_rng(4)
    g = build_graph(rng.normal(size=(10, 2)), np.arange(10.0),
                    threshold_s=1.5)
    h = rebuild_edges(g, threshold_s=4.0)
    assert np.array_equal(h.features, g.features)
    assert np.array_equal(h.positions_s, g.positions_s)
    assert len(h.edges) > len(g.edges)


def test_replaced_edges_get_their_own_topology():
    """A graph copied with other edges aggregates over those edges, never
    over the topology it was copied from; a graph built over a topology's
    own edge array keeps that topology."""
    g = build_graph(np.zeros((6, 1)), np.arange(6.0),
                    threshold_s=1.5)
    h = replace(g, edges=g.edges[:2])
    assert h.topology is not g.topology
    assert h.topology.edges is h.edges
    assert np.array_equal(h.topology.plan("src").ids, g.edges[:2, 0])
    same = TemporalGraph(g.features, g.positions_s, g.topology.edges,
                         topology=g.topology)
    assert same.topology is g.topology


# ---------------------------------------------------------------------------
# on-disk feature files
# ---------------------------------------------------------------------------


def test_feature_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    feats = rng.normal(size=(12, 6))
    positions = np.sort(rng.uniform(0, 30, size=12))
    save_features(tmp_path / "clip", feats, positions, "clip-007")
    loaded, pos, vid = load_features(tmp_path / "clip")
    assert vid == "clip-007"
    assert json.loads((tmp_path / "clip.json").read_text()) == {
        "num_segments": 12, "dim": 6, "video_id": "clip-007",
        "segment_midpoints_s": positions.tolist()}
    assert loaded.dtype == np.float64
    assert np.array_equal(pos, positions)
    # storage is float32, so the roundtrip is approximate
    assert np.max(np.abs(loaded - feats)) < 1e-6


def test_load_features_validates_byte_length(tmp_path):
    save_features(tmp_path / "clip", np.zeros((4, 3)), np.arange(4.0), "v")
    blob = (tmp_path / "clip.bin").read_bytes()
    (tmp_path / "clip.bin").write_bytes(blob[:-4])
    with pytest.raises(ValueError):
        load_features(tmp_path / "clip")


@pytest.mark.parametrize("field", ["features", "midpoints"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_load_features_rejects_non_finite_values(tmp_path, field, bad):
    feats, positions = np.zeros((4, 3)), np.arange(4.0)
    if field == "features":
        feats[2, 1] = bad
    else:
        positions[3] = bad
    save_features(tmp_path / "clip", feats, positions, "v")
    with pytest.raises(ValueError, match=f"clip: {field} hold non-finite"):
        load_features(tmp_path / "clip")


def test_row_file_roundtrip(tmp_path):
    rows = np.random.default_rng(6).normal(size=(5, 3))
    save_rows(tmp_path / "rows", rows, "num_rows", note="kept")
    assert (tmp_path / "rows.bin").read_bytes() == rows.astype("<f4").tobytes()
    loaded, sidecar = load_rows(tmp_path / "rows", "num_rows", "note")
    assert sidecar == {"num_rows": 5, "dim": 3, "note": "kept"}
    assert loaded.dtype == np.float64
    assert np.array_equal(loaded, rows.astype(np.float32).astype(np.float64))


@pytest.mark.parametrize("key,value", [("dim", 3.0), ("num_rows", -5),
                                       ("dim", True), ("num_rows", "5")])
def test_load_rows_names_count_or_dim_that_is_no_count(tmp_path, key, value):
    save_rows(tmp_path / "rows", np.zeros((5, 3)), "num_rows")
    sidecar = tmp_path / "rows.json"
    raw = json.loads(sidecar.read_text())
    raw[key] = value
    sidecar.write_text(json.dumps(raw))
    with pytest.raises(ValueError, match=(
            f"^{re.escape(str(sidecar))}: {key} must be a non-negative "
            f"integer, got {re.escape(repr(value))}$")):
        load_rows(tmp_path / "rows", "num_rows")


@pytest.mark.parametrize("key", ["num_segments", "dim", "segment_midpoints_s",
                                 "video_id"])
def test_load_features_names_missing_sidecar_key(tmp_path, key):
    save_features(tmp_path / "clip", np.zeros((4, 2)), np.arange(4.0), "v")
    sidecar = tmp_path / "clip.json"
    raw = json.loads(sidecar.read_text())
    del raw[key]
    sidecar.write_text(json.dumps(raw))
    with pytest.raises(ValueError, match=f"^{re.escape(str(sidecar))}: missing key {key}$"):
        load_features(tmp_path / "clip")
