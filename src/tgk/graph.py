"""Videos as temporal graphs: nodes are segments, edges link near-in-time
segments of the same video.

A graph batches several videos; ``video_boundaries`` stores start offsets
so edge building never crosses a video. Node timestamps are kept in
seconds at every stage of the coarsening pyramid and are never rescaled;
what widens with depth is the connection window.

Edges never cross videos, so a batch's edges are its videos' local edges
shifted by their start offsets. ``VideoCache`` keeps each video's
``Topology`` (its local edges and their scatter plans) per (positions,
window) for the length of one training or evaluation loop, which then
wires each video once per stage; a batch's topology, built over its
videos' shifted edges, is kept while the next batch has the same videos'
topologies in order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .autodiff import ScatterPlan

__all__ = [
    "TemporalGraph", "Topology", "VideoCache", "build_graph",
    "rebuild_edges", "stage_scale", "stage_window", "POOLINGS",
    "subsample_plan", "save_rows", "load_rows", "save_features",
    "load_features",
]


def stage_scale(stage: int) -> float:
    """The doubling law of the pyramid: 1 at the full-resolution stage 1,
    twice the previous stage's value at every later one. Connection
    windows and detection offsets both scale by it."""
    if stage < 1:
        raise ValueError(f"stage must be >= 1, got {stage}")
    return 2.0 ** (stage - 1)


def stage_window(threshold_s: float, stage: int) -> float:
    """Connection window in seconds at a pyramid stage."""
    return threshold_s * stage_scale(stage)


@dataclass
class TemporalGraph:
    """One batch of videos as a single graph.

    features:          (N, D) float64 node features
    positions_s:       (N,) segment midpoint timestamps in seconds
    edges:             (E, 2) int array of directed edges [src, dst];
                       built symmetric (both directions present)
    stage:             pyramid stage, 1 = full resolution
    video_boundaries:  start offsets per video plus final N, length V+1
    topology:          ``edges`` compiled for aggregation; rebuilt from
                       ``edges`` unless it holds that very array over
                       these nodes
    """

    features: np.ndarray
    positions_s: np.ndarray
    edges: np.ndarray
    stage: int = 1
    video_boundaries: np.ndarray = field(default=None)  # type: ignore[assignment]
    topology: "Topology" = field(default=None, repr=False, compare=False)  # type: ignore[assignment]

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.positions_s = np.asarray(self.positions_s, dtype=np.float64)
        if (self.topology is None or self.topology.edges is not self.edges
                or self.topology.num_nodes != self.num_nodes):
            self.edges = np.asarray(self.edges, dtype=np.intp).reshape(-1, 2)
            self.topology = Topology(self.edges, self.num_nodes)
        if self.video_boundaries is None:
            self.video_boundaries = np.array([0, self.num_nodes], dtype=np.intp)
        else:
            self.video_boundaries = np.asarray(self.video_boundaries, dtype=np.intp)
        if self.positions_s.shape != (self.num_nodes,):
            raise ValueError("positions_s must have one entry per node")
        if self.video_boundaries[0] != 0 or self.video_boundaries[-1] != self.num_nodes:
            raise ValueError("video_boundaries must start at 0 and end at num_nodes")

    @property
    def num_nodes(self) -> int:
        return self.features.shape[0]

    @property
    def num_videos(self) -> int:
        return len(self.video_boundaries) - 1

    def video_of(self) -> np.ndarray:
        """Video index per node, derived from the boundary offsets."""
        return np.repeat(np.arange(self.num_videos, dtype=np.intp),
                         np.diff(self.video_boundaries))

    def video_slice(self, v: int) -> slice:
        return slice(int(self.video_boundaries[v]), int(self.video_boundaries[v + 1]))


class Topology:
    """A graph's edges compiled for aggregation: per kind, the
    ``ScatterPlan`` that groups the graph's messages by node.

    - ``src`` and ``dst`` group the edge list by receiver and by sender;
    - ``closed_src`` and ``closed_dst`` do the same for the closed
      neighbourhood: the edges, then one self-loop per node.

    A plan is compiled on first use and kept with the topology.
    """

    def __init__(self, edges: np.ndarray, num_nodes: int):
        self.edges = edges
        self.num_nodes = num_nodes
        self._plans: dict[str, ScatterPlan] = {}
        self._survivors = None

    def plan(self, kind: str) -> ScatterPlan:
        plan = self._plans.get(kind)
        if plan is None:
            plan = self._plans[kind] = ScatterPlan.of(self._ids(kind),
                                                      self.num_nodes)
        return plan

    def _ids(self, kind: str) -> np.ndarray:
        column = self.edges[:, 0 if kind.endswith("src") else 1]
        if kind.startswith("closed"):
            return np.concatenate(
                [column, np.arange(self.num_nodes, dtype=np.intp)])
        return column

    def survivors(self, keep_idx: np.ndarray
                  ) -> tuple[ScatterPlan, ScatterPlan]:
        """Plans over the closed neighbourhoods of the distinct nodes
        ``keep_idx`` only: ``reads`` gathers the rows they read, in message
        order, and its backward adds into each node in message order;
        ``groups`` reduces those rows per survivor, in ``keep_idx`` order.
        Dropping the other messages drops only +0.0 gradient terms. The
        last survivors' plans are kept for a repeat call."""
        if self._survivors is not None and np.array_equal(
                self._survivors[0], keep_idx):
            return self._survivors[1]
        src, dst = self.plan("closed_src"), self.plan("closed_dst")
        kept = np.zeros(self.num_nodes, dtype=bool)
        kept[keep_idx] = True
        sel = kept[src.ids]
        at = np.cumsum(sel) - 1
        filled = dst.filled & sel[dst.table]
        reads = ScatterPlan(dst.ids[sel], at[dst.table] * filled, filled,
                            filled.sum(axis=1))
        rank = np.zeros(self.num_nodes, dtype=np.intp)
        rank[keep_idx] = np.arange(len(keep_idx))
        own = src.filled[keep_idx]
        groups = ScatterPlan(rank[src.ids[sel]], at[src.table[keep_idx]] * own,
                             own, src.counts[keep_idx])
        self._survivors = keep_idx, (reads, groups)
        return reads, groups


def _edges_for_positions(positions_s: np.ndarray, boundaries: np.ndarray,
                         window_s: float) -> np.ndarray:
    """All ordered pairs (i, j), i != j, same video, |t_i - t_j| < window."""
    src_parts, dst_parts = [], []
    for v in range(len(boundaries) - 1):
        lo, hi = int(boundaries[v]), int(boundaries[v + 1])
        pos = positions_s[lo:hi]
        n = hi - lo
        if n <= 1:
            continue
        dt = np.abs(pos[:, None] - pos[None, :])
        keep = dt < window_s
        np.fill_diagonal(keep, False)
        src, dst = np.nonzero(keep)
        src_parts.append(src + lo)
        dst_parts.append(dst + lo)
    if not src_parts:
        return np.empty((0, 2), dtype=np.intp)
    return np.stack([np.concatenate(src_parts), np.concatenate(dst_parts)], axis=1)


def build_graph(features: np.ndarray, positions_s: np.ndarray,
                video_boundaries: np.ndarray | None = None,
                threshold_s: float = 2.0, stage: int = 1) -> TemporalGraph:
    """Assemble a graph and wire its edges for the given stage."""
    features = np.asarray(features, dtype=np.float64)
    positions_s = np.asarray(positions_s, dtype=np.float64)
    if video_boundaries is None:
        video_boundaries = np.array([0, features.shape[0]], dtype=np.intp)
    edges = _edges_for_positions(positions_s, np.asarray(video_boundaries),
                                 stage_window(threshold_s, stage))
    return TemporalGraph(features, positions_s, edges, stage, np.asarray(video_boundaries))


def rebuild_edges(g: TemporalGraph, threshold_s: float = 2.0) -> TemporalGraph:
    """Recompute edges from current positions and stage, leaving nodes alone."""
    edges = _edges_for_positions(g.positions_s, g.video_boundaries,
                                 stage_window(threshold_s, g.stage))
    return replace(g, edges=edges)


class VideoCache:
    """Work that depends only on one video's nodes at one stage, done the
    first time a loop asks for it.

    A loop creates one cache and drops it when it returns; a call given no
    cache makes its own. Keys hold the bytes of the video's node positions
    at the stage, so a video whose survivors depend on its place in the
    batch (batch-ss pooling) gets one entry per survivor set.
    """

    def __init__(self):
        self._memo: dict = {}

    def get(self, key, compute):
        """``compute()``'s value, computed on the first call with ``key``."""
        value = self._memo.get(key)
        if value is None:
            value = self._memo[key] = compute()
        return value

    def graph(self, features: np.ndarray, positions_s: np.ndarray,
              bounds: np.ndarray, stage: int, threshold_s: float,
              wire) -> TemporalGraph:
        """A batch's graph at ``stage``. Each video's topology is that of
        ``wire(video)``, the video's own graph wired for ``threshold_s``, made
        on a miss. A one-video batch is that topology; a larger one is a
        topology over its videos' edges shifted by their start offsets,
        reused, plans and all, by the next batch at this window whose
        videos have the same topologies in order."""
        window = stage_window(threshold_s, stage)
        unwired = np.empty((0, 2), dtype=np.intp)
        videos = []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            pos = positions_s[lo:hi]
            videos.append(self.get(("topology", window, pos.tobytes()),
                                   lambda: wire(TemporalGraph(
                                       features[lo:hi], pos, unwired,
                                       stage)).topology))
        key = tuple(map(id, videos))
        last = self._memo.get(("batch", window))
        if len(videos) == 1:
            topology = videos[0]
        elif last is not None and last[0] == key:
            topology = last[1]
        else:
            topology = Topology(np.concatenate([unwired] + [
                video.edges + lo for video, lo in zip(videos, bounds)]),
                int(bounds[-1]))
            self._memo[("batch", window)] = key, topology
        return TemporalGraph(features, positions_s, topology.edges, stage,
                             bounds, topology)


POOLINGS = ("mean", "max", "video-ss", "batch-ss")


def subsample_plan(g: TemporalGraph, pooling: str) -> tuple[np.ndarray, np.ndarray]:
    """Survivor node indices and new video boundaries for one halving.

    mean / max / video-ss keep even local indices within each video;
    batch-ss alternates nodes across the whole batch, so per-video counts
    may deviate by one while the global count still ceil-halves.
    """
    if pooling not in POOLINGS:
        raise ValueError(f"unknown pooling {pooling!r}")
    keep_parts = []
    new_bounds = [0]
    for v in range(g.num_videos):
        lo, hi = int(g.video_boundaries[v]), int(g.video_boundaries[v + 1])
        if pooling == "batch-ss":
            first = lo + (lo % 2)  # global even indices only
            keep = np.arange(first, hi, 2, dtype=np.intp)
        else:
            keep = np.arange(lo, hi, 2, dtype=np.intp)
        keep_parts.append(keep)
        new_bounds.append(new_bounds[-1] + len(keep))
    keep_idx = np.concatenate(keep_parts) if keep_parts else np.empty(0, dtype=np.intp)
    return keep_idx, np.asarray(new_bounds, dtype=np.intp)


# ---------------------------------------------------------------------------
# on-disk row files: little-endian float32 rows + JSON sidecar
# ---------------------------------------------------------------------------

def save_rows(path: str | Path, rows: np.ndarray, count_key: str,
              **sidecar) -> None:
    """Write ``rows`` as ``<path>.bin``, little-endian float32, and a
    ``<path>.json`` sidecar holding ``sidecar``, the row count under
    ``count_key`` and the row width under ``dim``."""
    path = Path(path)
    data = np.ascontiguousarray(rows, dtype="<f4")
    path.with_suffix(".bin").write_bytes(data.tobytes())
    sidecar |= {count_key: int(data.shape[0]), "dim": int(data.shape[1])}
    path.with_suffix(".json").write_text(
        json.dumps(sidecar, indent=2, sort_keys=True))


def load_rows(path: str | Path, count_key: str, *keys: str
              ) -> tuple[np.ndarray, dict]:
    """Rows saved by ``save_rows`` as float64, and their sidecar. A sidecar
    that lacks ``count_key``, ``dim`` or one of ``keys``, whose count or
    ``dim`` is not a non-negative int, or a ``.bin`` whose length disagrees
    with it, raises ValueError naming the file."""
    path = Path(path)
    sidecar_path = path.with_suffix(".json")
    sidecar = json.loads(sidecar_path.read_text())
    for key in (count_key, "dim", *keys):
        if key not in sidecar:
            raise ValueError(f"{sidecar_path}: missing key {key}")
    for key in (count_key, "dim"):
        # bool is an int subclass, and 3.0 passes the length check
        if type(sidecar[key]) is not int or sidecar[key] < 0:
            raise ValueError(f"{sidecar_path}: {key} must be a non-negative "
                             f"integer, got {sidecar[key]!r}")
    n, d = sidecar[count_key], sidecar["dim"]
    raw = path.with_suffix(".bin").read_bytes()
    if len(raw) != n * d * 4:
        raise ValueError(f"{path.with_suffix('.bin')}: expected {n * d * 4} "
                         f"bytes, found {len(raw)}")
    return np.frombuffer(raw, dtype="<f4").reshape(n, d).astype(
        np.float64), sidecar


def save_features(path: str | Path, features: np.ndarray,
                  positions_s: np.ndarray, video_id: str) -> None:
    """Write one video's features as a row file whose sidecar also holds
    the segment midpoints and the video id."""
    save_rows(path, features, "num_segments",
              segment_midpoints_s=[float(t) for t in positions_s],
              video_id=video_id)


def load_features(path: str | Path) -> tuple[np.ndarray, np.ndarray, str]:
    """Read features saved by ``save_features``; validates that every
    feature and midpoint is finite."""
    feats, sidecar = load_rows(path, "num_segments", "segment_midpoints_s",
                               "video_id")
    positions = np.asarray(sidecar["segment_midpoints_s"], dtype=np.float64)
    if positions.shape != (len(feats),):
        raise ValueError(f"{path}: sidecar midpoints do not match num_segments")
    for name, values in (("features", feats), ("midpoints", positions)):
        if not np.isfinite(values).all():
            raise ValueError(f"{path}: {name} hold non-finite values")
    return feats, positions, sidecar["video_id"]
