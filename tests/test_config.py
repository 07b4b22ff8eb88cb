"""Run-config tests: JSON round trip, strict loading, the checks that
keep the recorded backbone consistent with the data and tasks, and the
schema doc's field tables."""

import json
import re
from dataclasses import fields, replace
from pathlib import Path

import pytest

from tgk.config import ExperimentConfig, validate_config
from tgk.hierarchy import BackboneConfig
from tgk.layers import LAYER_KINDS, TDGC_VARIANTS
from tgk.synth import SynthConfig
from tgk.training import TrainConfig

SCHEMA = Path(__file__).resolve().parents[1] / "docs" / "config_schema.md"


def mq_config() -> ExperimentConfig:
    return ExperimentConfig(
        data=SynthConfig(dim=12), tasks=("mq",),
        backbone=BackboneConfig(layer_kind="sage", d_in=12, d_model=12,
                                num_stages=4, threshold_s=5.0))


def test_json_round_trip_is_exact():
    cfg = mq_config()
    text = cfg.to_json()
    assert ExperimentConfig.from_json(text) == cfg
    assert ExperimentConfig.from_json(text).to_json() == text


@pytest.mark.parametrize("section, key, edit", [
    ("train", "fusion", lambda raw: raw["train"].update(fusion="features")),
    ("backbone", "d_in", lambda raw: raw["backbone"].pop("d_in")),
    ("data", "dim", lambda raw: raw["data"].pop("dim")),
    ("config", "extra", lambda raw: raw.update(extra=1)),
    ("config", "tasks", lambda raw: raw.pop("tasks")),
    ("config", "arm", lambda raw: raw.pop("arm")),
])
def test_from_json_names_unknown_or_missing_key(section, key, edit):
    raw = json.loads(mq_config().to_json())
    edit(raw)
    with pytest.raises(ValueError, match=f"^{section}.{key}: "):
        ExperimentConfig.from_json(json.dumps(raw))


@pytest.mark.parametrize("backbone, field", [
    (dict(d_in=16), "backbone.d_in"),
    (dict(d_model=16), "backbone.d_model"),
    (dict(num_stages=1), "backbone.num_stages"),
])
def test_validate_rejects_backbone_not_laid_out_for_run(backbone, field):
    cfg = mq_config()
    cfg = replace(cfg, backbone=replace(cfg.backbone, **backbone))
    with pytest.raises(ValueError, match=f"^{field}: "):
        validate_config(cfg)


def test_validate_accepts_every_layer_kind_and_tdgc_variant():
    cfg = mq_config()
    for kind in [*LAYER_KINDS, *TDGC_VARIANTS]:
        validate_config(replace(cfg, backbone=replace(cfg.backbone,
                                                      layer_kind=kind)))
    with pytest.raises(ValueError, match="^backbone.layer_kind: unknown kind "
                                         "'tdgc-no-both'; choose from "):
        validate_config(replace(cfg, backbone=replace(
            cfg.backbone, layer_kind="tdgc-no-both")))


@pytest.mark.parametrize("change, message", [
    (dict(tasks=("mq", "mq")), "tasks: task 'mq' listed twice"),
    (dict(arm="translation", support_tasks=("ar", "oscc", "ar")),
     "support_tasks: task 'ar' listed twice"),
])
def test_validate_rejects_a_task_listed_twice(change, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        validate_config(replace(mq_config(), **change))


@pytest.mark.parametrize("change, field", [
    (dict(arm="distill"), "arm"),
    (dict(arm="egopack", support_tasks=("ar", "asr")), "support_tasks"),
    (dict(arm="mtl-ft", support_tasks=("ar",)), "support_tasks"),
])
def test_validate_rejects_unknown_arm_or_support_task(change, field):
    with pytest.raises(ValueError, match=f"^{field}: "):
        validate_config(replace(mq_config(), **change))
    validate_config(replace(mq_config(), arm="translation",
                            support_tasks=("ar", "oscc")))


@pytest.mark.parametrize("section, change, field", [
    ("data", dict(seed=-1), "data.seed"),
    ("data", dict(num_verbs=1), "data.num_verbs"),
    ("data", dict(event_len_lo=3, event_len_hi=2), "data.event_len_hi"),
    ("train", dict(seed=-1), "train.seed"),
    # lr_at read a negative warmup as a shifted schedule
    ("train", dict(epochs=0, warmup_epochs=-1), "train.epochs"),
    ("train", dict(warmup_epochs=-1), "train.warmup_epochs"),
])
def test_validate_rejects_negative_seed_or_unusable_data(section, change,
                                                         field):
    cfg = mq_config()
    cfg = replace(cfg, **{section: replace(getattr(cfg, section), **change)})
    with pytest.raises(ValueError, match=f"^{field}: "):
        validate_config(cfg)


@pytest.mark.parametrize("section, change, field", [
    ("backbone", dict(threshold_s=float("nan")), "backbone.threshold_s"),
    ("backbone", dict(threshold_s=float("inf")), "backbone.threshold_s"),
    ("train", dict(base_lr=float("nan")), "train.base_lr"),
    ("train", dict(base_lr=float("inf")), "train.base_lr"),
    ("train", dict(mq_min_score=-0.1), "train.mq_min_score"),
    ("train", dict(mq_min_score=float("nan")), "train.mq_min_score"),
    ("data", dict(noise=float("nan")), "data.noise"),
    ("data", dict(noise=-0.1), "data.noise"),
    ("data", dict(segment_s=float("inf")), "data.segment_s"),
])
def test_validate_rejects_non_finite_or_out_of_range_float(section, change,
                                                           field):
    cfg = mq_config()
    cfg = replace(cfg, **{section: replace(getattr(cfg, section), **change)})
    with pytest.raises(ValueError, match=f"^{field}: "):
        validate_config(cfg)


@pytest.mark.parametrize("section, kind", [
    ("data", SynthConfig), ("train", TrainConfig), ("backbone", BackboneConfig),
])
def test_schema_doc_lists_exactly_the_config_fields(section, kind):
    # a field added to or removed from a config type reaches the doc's
    # table for its section, once
    body = SCHEMA.read_text().split(f"\n## `{section}`")[1].split("\n## ")[0]
    rows = re.findall(r"^\| `(\w+)` \|", body, flags=re.MULTILINE)
    assert sorted(rows) == sorted(f.name for f in fields(kind))
