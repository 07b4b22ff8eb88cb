"""Experiment configuration: one JSON-serializable record per run.

Every command-line run resolves its settings into an ``ExperimentConfig``
and writes it as ``config.json`` in the run directory, so a run is fully
reproducible from its directory alone: it is the only record of what
ran, and ``tgk.persist.load_run`` rebuilds the model from it. ``backbone``
is the exact ``BackboneConfig`` the run's model is built with, ``arm``
the training arm and ``support_tasks`` the tasks whose banks (egopack) or
token models (translation) the run reads. Validation happens eagerly at
construction time with named errors instead of failures mid-training.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from .graph import POOLINGS
from .hierarchy import BackboneConfig
from .layers import LAYER_KINDS, TDGC_VARIANTS
from .synth import SynthConfig, TASK_NAMES
from .training import TrainConfig, stage_count_for

__all__ = ["ExperimentConfig", "validate_config", "validate_data",
           "load_config", "save_config"]

ARMS = ("single", "mtl", "translation", "egopack", "mtl-ft", "mtl-ht")
# arms that read support tasks; every other arm records none
SUPPORT_ARMS = ("egopack", "translation")


@dataclass(frozen=True)
class ExperimentConfig:
    data: SynthConfig = field(default_factory=SynthConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    backbone: BackboneConfig = field(default_factory=BackboneConfig)
    tasks: tuple = ("ar",)
    arm: str = "single"
    support_tasks: tuple = ()

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        """Parse ``config.json``; a missing or unknown key in any section
        raises ValueError naming it."""
        raw = json.loads(text)
        _check_keys("config", raw, [f.name for f in fields(cls)])
        sections = {name: _section(name, raw[name], kind)
                    for name, kind in (("data", SynthConfig),
                                       ("train", TrainConfig),
                                       ("backbone", BackboneConfig))}
        cfg = cls(**sections, tasks=tuple(raw["tasks"]), arm=raw["arm"],
                  support_tasks=tuple(raw["support_tasks"]))
        validate_config(cfg)
        return cfg


def _check_keys(section: str, raw: dict, expected) -> None:
    """ValueError naming the first key ``raw`` lacks, else the first it
    should not have."""
    missing = sorted(set(expected) - set(raw))
    unknown = sorted(set(raw) - set(expected))
    if missing:
        raise ValueError(f"{section}.{missing[0]}: missing key")
    if unknown:
        raise ValueError(f"{section}.{unknown[0]}: unknown key")


def _section(name: str, raw: dict, kind):
    _check_keys(name, raw, [f.name for f in fields(kind)])
    return kind(**raw)


def validate_config(cfg: ExperimentConfig) -> None:
    """Raise ValueError naming the first invalid field."""
    kinds = sorted(LAYER_KINDS.keys() | TDGC_VARIANTS.keys())
    if cfg.backbone.layer_kind not in kinds:
        raise ValueError(f"backbone.layer_kind: unknown kind "
                         f"{cfg.backbone.layer_kind!r}; choose from {kinds}")
    if cfg.backbone.pooling not in POOLINGS:
        raise ValueError(f"backbone.pooling: unknown pooling "
                         f"{cfg.backbone.pooling!r}; choose from {POOLINGS}")
    if not 0 < cfg.backbone.threshold_s < math.inf:
        raise ValueError(f"backbone.threshold_s: must be positive and finite, "
                         f"got {cfg.backbone.threshold_s}")
    if cfg.backbone.layers_per_stage < 1:
        raise ValueError("backbone.layers_per_stage: must be >= 1")
    for name in ("tasks", "support_tasks"):
        listed = getattr(cfg, name)
        for i, t in enumerate(listed):
            if t not in TASK_NAMES:
                raise ValueError(f"{name}: unknown task {t!r}; "
                                 f"choose from {TASK_NAMES}")
            if t in listed[:i]:
                raise ValueError(f"{name}: task {t!r} listed twice")
    if not cfg.tasks:
        raise ValueError("tasks: at least one task required")
    if cfg.arm not in ARMS:
        raise ValueError(f"arm: unknown arm {cfg.arm!r}; choose from {ARMS}")
    if cfg.support_tasks and cfg.arm not in SUPPORT_ARMS:
        raise ValueError(f"support_tasks: arm {cfg.arm!r} reads none")
    for width in ("d_in", "d_model"):
        if getattr(cfg.backbone, width) != cfg.data.dim:
            raise ValueError(f"backbone.{width}: must equal data.dim "
                             f"({cfg.data.dim}), got "
                             f"{getattr(cfg.backbone, width)}")
    stages = stage_count_for(cfg.tasks)
    if cfg.backbone.num_stages != stages:
        raise ValueError(f"backbone.num_stages: tasks {list(cfg.tasks)} "
                         f"need {stages}, got {cfg.backbone.num_stages}")
    validate_data(cfg.data)
    if cfg.train.seed < 0:
        raise ValueError(f"train.seed: must be >= 0, got {cfg.train.seed}")
    if cfg.train.epochs < 1:
        raise ValueError(f"train.epochs: must be >= 1, got {cfg.train.epochs}")
    if cfg.train.warmup_epochs < 0:
        raise ValueError(f"train.warmup_epochs: must be >= 0, got "
                         f"{cfg.train.warmup_epochs}")
    if cfg.train.epochs <= cfg.train.warmup_epochs:
        raise ValueError("train.epochs: must exceed train.warmup_epochs")
    if cfg.train.batch_videos < 1:
        raise ValueError("train.batch_videos: must be >= 1")
    if not 0 < cfg.train.base_lr < math.inf:
        raise ValueError(f"train.base_lr: must be positive and finite, got "
                         f"{cfg.train.base_lr}")
    for task, rate in cfg.train.task_lr.items():
        if task not in TASK_NAMES:
            raise ValueError(f"train.task_lr.{task}: unknown task; "
                             f"choose from {TASK_NAMES}")
        if not isinstance(rate, (int, float)) or not 0 < rate < math.inf:
            raise ValueError(f"train.task_lr.{task}: must be positive and "
                             f"finite, got {rate!r}")
    if cfg.train.knn_k < 1:
        raise ValueError("train.knn_k: must be >= 1")
    if cfg.train.num_candidates < 1:
        raise ValueError("train.num_candidates: must be >= 1")
    if not 0.0 <= cfg.train.mq_min_score <= 1.0:
        raise ValueError(f"train.mq_min_score: must lie in [0, 1], got "
                         f"{cfg.train.mq_min_score}")


def validate_data(data: SynthConfig) -> None:
    """Raise ValueError naming the first field of ``data`` that no corpus
    can be generated from, or that no training run accepts."""
    for count in ("num_train_videos", "num_val_videos", "segments_per_video",
                  "num_nouns", "event_len_lo", "lta_steps"):
        if getattr(data, count) < 1:
            raise ValueError(f"data.{count}: must be >= 1, got "
                             f"{getattr(data, count)}")
    if data.dim < 2 or data.dim % 2:
        raise ValueError(f"data.dim: must be even and >= 2 (time encodings "
                         f"pair up sin/cos channels), got {data.dim}")
    if data.num_verbs < 2:
        raise ValueError(f"data.num_verbs: must be >= 2, got {data.num_verbs}")
    if data.event_len_hi < data.event_len_lo:
        raise ValueError(f"data.event_len_hi: must be >= event_len_lo "
                         f"({data.event_len_lo}), got {data.event_len_hi}")
    if not data.segment_s > 0:
        raise ValueError(f"data.segment_s: must be positive, got "
                         f"{data.segment_s}")
    if data.segment_s == math.inf:
        raise ValueError("data.segment_s: must be finite, got inf")
    if not 0.0 <= data.noise < math.inf:
        raise ValueError(f"data.noise: must be non-negative and finite, got "
                         f"{data.noise}")
    for prob_field in ("verb_follow", "noun_repeat"):
        p = getattr(data, prob_field)
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"data.{prob_field}: must lie in [0, 1], got {p}")
    if data.seed < 0:
        raise ValueError(f"data.seed: must be >= 0, got {data.seed}")


def save_config(run_dir: str | Path, cfg: ExperimentConfig) -> None:
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "config.json").write_text(cfg.to_json())


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    if path.is_dir():
        path = path / "config.json"
    return ExperimentConfig.from_json(path.read_text())
