"""Multi-stage backbone: stacked graph layers with coarsening between.

Stage 1 runs a block of layers on the full-resolution graph. Each later
stage first halves the node count (pooling survivor features over their
closed neighborhood, or plain alternation for the -ss variants) and then
runs its own block on the coarser graph, whose connection window doubles.
Node counts follow ceil(N / 2^(l-1)); timestamps stay in seconds
throughout.

``backbone_forward`` returns every stage's (graph, features) pair so task
necks can pick the resolution they need, and the feature path stays
differentiable across the pooling steps. A coarser stage's edges are its
videos' edges from a ``VideoCache``, each rebuilt once per video and stage
by ``rebuild_edges``; the survivor plan is made per batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import (
    Tensor, add, gather_rows, relu, segment_max, segment_mean,
)
from .graph import TemporalGraph, VideoCache, rebuild_edges, subsample_plan
from .layers import LAYER_KINDS, TDGC_VARIANTS, LayerKind, sinusoidal_pe

__all__ = ["BackboneConfig", "BackboneParams", "StageOutput",
           "backbone_forward", "pool_closed_neighborhood"]


@dataclass(frozen=True)
class BackboneConfig:
    """Shape of the pyramid.

    num_stages=1 keeps everything at full resolution (dense per-segment
    tasks); detection-style tasks use 4. ``layer_kind`` names a
    ``LAYER_KINDS`` or a ``TDGC_VARIANTS`` entry. A run records the config
    its model is built with in ``config.json``, which ``load_run`` rebuilds
    the model from.
    """

    layer_kind: str = "tdgc"
    d_in: int = 32
    d_model: int = 32
    num_stages: int = 1
    layers_per_stage: int = 2
    threshold_s: float = 2.0
    pooling: str = "mean"

    @property
    def kind(self) -> LayerKind:
        # read at call time: a tracer may swap the LAYER_KINDS entries
        return LAYER_KINDS.get(self.layer_kind) or TDGC_VARIANTS[self.layer_kind]


@dataclass
class BackboneParams:
    """One layer-parameter block per stage."""

    stages: list[list] = field(default_factory=list)

    @classmethod
    def init(cls, rng: np.random.Generator, cfg: BackboneConfig) -> "BackboneParams":
        kind = cfg.kind
        # only the first layer of the first stage reads the input width
        return cls([[kind.init(rng, cfg.d_model if stage or layer else cfg.d_in,
                               cfg.d_model)
                     for layer in range(cfg.layers_per_stage)]
                    for stage in range(cfg.num_stages)])

    def params(self) -> list[Tensor]:
        return [t for block in self.stages for lp in block for t in lp.params()]


@dataclass
class StageOutput:
    """Graph topology and differentiable features at one pyramid stage."""

    graph: TemporalGraph
    features: Tensor


def pool_closed_neighborhood(x: Tensor, g: TemporalGraph, how: str,
                             keep_idx: np.ndarray) -> Tensor:
    """Pool the survivors ``keep_idx`` (distinct nodes), each over itself
    and its neighbors; one row per survivor, in ``keep_idx`` order.

    Only the survivors' closed neighbourhoods are read, through the plans
    of ``g.topology.survivors``. The self-loop keeps an isolated node's own
    features under both mean and max.
    """
    if how not in ("mean", "max"):
        raise ValueError(f"unknown pooling {how!r}")
    reads, groups = g.topology.survivors(keep_idx)
    msg = gather_rows(x, reads)
    if how == "mean":
        return segment_mean(msg, groups)
    return segment_max(msg, groups)


def _run_block(block: list, kind: LayerKind, g: TemporalGraph, x: Tensor) -> Tensor:
    """Layers of one stage with ReLU between them, linear at the end."""
    for i, lp in enumerate(block):
        if i:
            x = relu(x)
        x = kind.forward(lp, g, x)
    return x


def backbone_forward(params: BackboneParams, cfg: BackboneConfig,
                     graph: TemporalGraph, cache: VideoCache | None = None
                     ) -> list[StageOutput]:
    """Run every stage; returns one StageOutput per stage, fine to coarse.

    ``graph`` must be a stage-1 graph with edges already built; its own
    feature array is the constant input. ``cache`` holds the coarser
    stages' per-video edges across the calls of one loop.
    """
    if graph.stage != 1:
        raise ValueError("backbone expects a stage-1 graph")
    cache = VideoCache() if cache is None else cache
    kind = cfg.kind
    x = Tensor(graph.features)
    g = graph
    outputs: list[StageOutput] = []
    for stage_idx, block in enumerate(params.stages):
        if stage_idx > 0:
            keep_idx, new_bounds = subsample_plan(g, cfg.pooling)
            if cfg.pooling in ("mean", "max"):
                x = pool_closed_neighborhood(x, g, cfg.pooling, keep_idx)
            else:
                x = gather_rows(x, keep_idx)
            g = cache.graph(x.data, g.positions_s[keep_idx], new_bounds,
                            g.stage + 1, cfg.threshold_s,
                            lambda video: rebuild_edges(video, cfg.threshold_s))
        if kind.adds_time_encoding:
            x = add(x, Tensor(sinusoidal_pe(g.positions_s, x.shape[1])))
        x = _run_block(block, kind, g, x)
        outputs.append(StageOutput(graph=g, features=x))
    return outputs
