"""Experiment recipes: the ordering probe, layer ablations, the detection
grid over pyramid settings, and transfer-arm matchups.

The ordering probe is the controlled experiment at the heart of the layer
comparison: fixed-size two-event windows whose label is the event order.
Its data distribution is mirror-symmetric, so accuracy above chance
requires the layer to carry temporal direction; layers that only see
neighbor multisets are pinned to 50% no matter how long they train.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .autodiff import (
    GradientTape, Tensor, backward, cross_entropy_rows, segment_mean,
)
from .graph import TemporalGraph, VideoCache, build_graph
from .hierarchy import BackboneConfig, BackboneParams, backbone_forward
from .synth import SynthConfig, SynthDataset, generate_dataset, generate_order_windows
from .tasks import MlpParams, mlp_forward
from .training import (
    MultiTaskModel, TrainConfig, _adam_batches, _require_finite, evaluate,
    run_novel, run_single,
)

__all__ = [
    "OrderProbeConfig", "train_order_probe", "run_order_separation",
    "run_transfer_matchup", "run_ablation_grid",
]

# Adam learning rate of every probe arm
PROBE_LR = 3e-3


@dataclass(frozen=True)
class OrderProbeConfig:
    """Settings for one ordering-probe run."""

    num_windows: int = 2000
    train_fraction: float = 0.8
    noise: float = 0.1
    dim: int = 32
    window_segments: int = 8
    epochs: int = 30
    warmup_epochs: int = 5
    batch_windows: int = 64

    @property
    def num_train(self) -> int:
        """Windows in the training split; the rest are validation."""
        return int(self.num_windows * self.train_fraction)


def _window_batch_graph(feats: np.ndarray, positions: np.ndarray,
                        threshold_s: float, cache: VideoCache
                        ) -> TemporalGraph:
    """Stack windows into one graph, each window its own video. Windows
    share their positions, so ``build_graph`` wires one window per cache."""
    w, s, d = feats.shape
    flat = feats.reshape(w * s, d)
    pos = np.tile(positions, w)
    bounds = np.arange(0, (w + 1) * s, s)
    return cache.graph(flat, pos, bounds, 1, threshold_s, lambda video:
                       build_graph(video.features, video.positions_s,
                                   threshold_s=threshold_s))


def train_order_probe(layer_kind: str, seed: int,
                      probe: OrderProbeConfig = OrderProbeConfig()) -> float:
    """Train one probe arm, a ``LAYER_KINDS`` name or a ``TDGC_VARIANTS``
    name, on the ordering probe; returns its validation accuracy in %.

    The model is one backbone stage (two layers) followed by per-window
    mean pooling and a small classifier, trained by ``_train_loop``'s
    core. Data, split, and init all derive from ``seed``; only the
    validation split is scored.
    """
    rng = np.random.default_rng(seed)
    feats, positions, labels = generate_order_windows(
        probe.num_windows, probe.noise, rng, dim=probe.dim,
        window_segments=probe.window_segments)
    n_train = probe.num_train
    train_f, val_f = feats[:n_train], feats[n_train:]
    train_y, val_y = labels[:n_train], labels[n_train:]

    cfg = BackboneConfig(layer_kind=layer_kind, d_in=probe.dim,
                         d_model=probe.dim, num_stages=1)
    params = BackboneParams.init(rng, cfg)
    readout = MlpParams.init(rng, probe.dim, probe.dim, 2)
    cache = VideoCache()

    def window_logits(batch_feats: np.ndarray) -> Tensor:
        g = _window_batch_graph(batch_feats, positions, cfg.threshold_s, cache)
        out = backbone_forward(params, cfg, g, cache)[0]
        pooled = segment_mean(out.features, g.video_of(), batch_feats.shape[0])
        return mlp_forward(readout, pooled)

    for epoch, sel, leaves in _adam_batches(
            [(params.params() + readout.params(), PROBE_LR)], n_train, rng,
            probe.batch_windows, probe.epochs, probe.warmup_epochs):
        with GradientTape() as tape:
            loss = _require_finite(cross_entropy_rows(
                window_logits(train_f[sel]), train_y[sel]), "order probe",
                epoch)
        backward(tape, loss, leaves=leaves)

    preds = window_logits(val_f).data.argmax(axis=1)
    return 100.0 * float((preds == val_y).mean())


def run_order_separation(arms, seeds,
                         probe: OrderProbeConfig = OrderProbeConfig()) -> dict:
    """Probe validation accuracy per arm per seed, plus seed means; each
    arm is a layer kind or a ``TDGC_VARIANTS`` name."""
    out = {}
    for arm in arms:
        per_seed = {s: train_order_probe(arm, s, probe) for s in seeds}
        out[arm] = {"per_seed": per_seed,
                    "mean": float(np.mean(list(per_seed.values())))}
    return out


def run_transfer_matchup(novel_task: str, ds: SynthDataset, cfg: TrainConfig,
                         support: MultiTaskModel, banks: dict,
                         novel_train_videos: int | None = None) -> tuple:
    """One seed of the transfer experiment: egopack vs its baselines.

    ``support`` is the support model trained on ``ds`` with ``cfg``
    (``run_mtl``) and ``banks`` its prototype banks
    (``build_prototype_banks``), keyed by support task. Neither is written,
    so one support phase serves every novel task. The novel phase is
    restricted to the first ``novel_train_videos`` training videos
    (data-poor novel task; None keeps them all). Returns ``(arms,
    egopack_model, egopack_state)``: each arm's novel-task validation
    metrics, then the egopack arm's trained model and ``NovelModel``.
    """
    novel_ds = SynthDataset(ds.config, ds.train[:novel_train_videos], ds.val)

    single = run_single(novel_task, novel_ds, cfg)
    ft_model, ft_state = run_novel(novel_task, novel_ds, cfg, support,
                                   banks=None, interaction=False)
    ego_model, ego_state = run_novel(novel_task, novel_ds, cfg, support,
                                     banks=banks, interaction=True)
    arms = {
        "single": evaluate(single, ds.val, cfg)[novel_task],
        "mtl_ft": evaluate(ft_model, ds.val, cfg, novel=ft_state)[novel_task],
        "egopack": evaluate(ego_model, ds.val, cfg, novel=ego_state)[novel_task],
    }
    return arms, ego_model, ego_state


def run_ablation_grid(data_cfg: SynthConfig, train_cfg: TrainConfig,
                      layer_kinds=("tdgc", "sgcn", "sage-pe", "sage", "gcn", "gat"),
                      poolings=("mean",), thresholds=(2.0,),
                      seeds=(0,)) -> list[dict]:
    """Grid of detection runs over layer kind, pooling, and threshold.

    Every cell trains a single-task detection model per seed; each seed
    regenerates its corpus, so cells compare on identical data. Returns one
    record per cell with the seed-mean mAP; the command-line harness turns
    these into tables.
    """
    records = []
    for kind in layer_kinds:
        for pooling in poolings:
            for thr in thresholds:
                per_seed = []
                for seed in seeds:
                    ds = generate_dataset(replace(data_cfg, seed=seed))
                    cfg = replace(train_cfg, seed=seed)
                    model = run_single("mq", ds, cfg, backbone_cfg=BackboneConfig(
                        layer_kind=kind, pooling=pooling, threshold_s=thr))
                    result = evaluate(model, ds.val, cfg)
                    per_seed.append(result["mq"]["map_avg"])
                records.append({
                    "layer_kind": kind, "pooling": pooling,
                    "threshold_s": thr,
                    "map_avg": float(np.mean(per_seed)),
                    "num_seeds": len(seeds),
                })
    return records
