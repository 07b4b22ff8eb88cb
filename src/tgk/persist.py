"""Saving and loading trained models inside run directories.

A run directory holds ``model_meta.json`` (structure: tasks, label
spaces, backbone settings, arm-specific extras) plus ``model.npz`` with
every parameter array in the model's canonical ``params()`` order.
Rebuilding replays the exact construction code path of training and then
overwrites the arrays, so order stays consistent by construction.
Prototype banks live in ``prototypes/`` in their own portable format.
"""

from __future__ import annotations

import json
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .egopack import InteractionParams, load_bank, save_bank
from .hierarchy import BackboneConfig
from .tasks import NeckParams
from .training import (
    MultiTaskModel, NovelModel, TrainConfig, TranslationModel, WorldInfo,
)
from .translation import TranslationParams

__all__ = ["save_multitask", "load_multitask", "save_novel", "load_novel",
           "save_translation", "load_translation"]


def _write_arrays(path: Path, params: list) -> None:
    np.savez(path, **{f"p{i:05d}": t.data for i, t in enumerate(params)})


def _read_arrays(path: Path, params: list) -> None:
    with np.load(path) as npz:
        if len(npz.files) != len(params):
            raise ValueError(
                f"{path}: holds {len(npz.files)} arrays, model wants {len(params)}")
        for i, t in enumerate(params):
            arr = npz[f"p{i:05d}"]
            if arr.shape != t.data.shape:
                raise ValueError(f"{path}: param {i} shape mismatch "
                                 f"{arr.shape} vs {t.data.shape}")
            t.data = arr.astype(np.float64)


def _meta_core(model: MultiTaskModel) -> dict:
    return {
        "tasks": model.tasks,
        "world": asdict(model.world),
        "backbone": asdict(model.backbone_cfg),
    }


def _rebuild_multitask(meta: dict) -> MultiTaskModel:
    world = WorldInfo(**meta["world"])
    backbone_cfg = BackboneConfig(**meta["backbone"])
    rng = np.random.default_rng(0)
    return MultiTaskModel.init(rng, meta["tasks"], world, backbone_cfg)


def _model_params(model: MultiTaskModel) -> list:
    out = model.backbone.params()
    for name in model.tasks:
        out.extend(model.branches[name].params())
    return out


def save_multitask(run_dir: str | Path, model: MultiTaskModel) -> None:
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    meta = {"arm": "multitask", **_meta_core(model)}
    (run_dir / "model_meta.json").write_text(json.dumps(meta, indent=2,
                                                        sort_keys=True))
    _write_arrays(run_dir / "model.npz", _model_params(model))


def load_multitask(run_dir: str | Path) -> MultiTaskModel:
    run_dir = Path(run_dir)
    meta = json.loads((run_dir / "model_meta.json").read_text())
    model = _rebuild_multitask(meta)
    _read_arrays(run_dir / "model.npz", _model_params(model))
    return model


def save_novel(run_dir: str | Path, model: MultiTaskModel,
               novel: NovelModel) -> None:
    """Persist a phase-two run: model (with interaction weights), frozen
    support necks, and the banks it queried."""
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    meta = {
        "arm": "novel",
        **_meta_core(model),
        "novel_task": novel.novel,
        "support_tasks": sorted(novel.interactions),
        "interaction_enabled": novel.interaction_enabled,
        "interaction_layers": (len(next(iter(novel.interactions.values())).layers)
                               if novel.interactions else 0),
        "knn_k": novel.cfg.knn_k,
        "rematch": novel.cfg.rematch,
    }
    (run_dir / "model_meta.json").write_text(json.dumps(meta, indent=2,
                                                        sort_keys=True))
    _write_arrays(run_dir / "model.npz", _model_params(model))
    neck_params = [t for name in sorted(novel.support_necks)
                   for t in novel.support_necks[name].params()]
    if neck_params:
        _write_arrays(run_dir / "support_necks.npz", neck_params)
    for bank in novel.banks.values():
        save_bank(run_dir / "prototypes", bank)


def load_novel(run_dir: str | Path, cfg: TrainConfig
               ) -> tuple[MultiTaskModel, NovelModel]:
    run_dir = Path(run_dir)
    meta = json.loads((run_dir / "model_meta.json").read_text())
    world = WorldInfo(**meta["world"])
    model = _rebuild_multitask(meta)
    support_tasks = meta["support_tasks"]
    rng = np.random.default_rng(0)

    interactions = {t: InteractionParams.init(rng, world.dim,
                                              meta["interaction_layers"])
                    for t in support_tasks}
    model.branches[meta["novel_task"]].extra = [
        p for ip in interactions.values() for p in ip.params()]
    _read_arrays(run_dir / "model.npz", _model_params(model))

    support_necks = {}
    if support_tasks:
        support_necks = {t: NeckParams.init(rng, world.dim)
                         for t in support_tasks}
        neck_params = [t for name in sorted(support_necks)
                       for t in support_necks[name].params()]
        _read_arrays(run_dir / "support_necks.npz", neck_params)
        for neck in support_necks.values():
            for t in neck.params():
                t.requires_grad = False

    banks = {t: load_bank(run_dir / "prototypes", t) for t in support_tasks}
    cfg = replace(cfg, knn_k=meta["knn_k"], rematch=meta["rematch"])
    novel = NovelModel(model, meta["novel_task"], support_necks,
                       interactions, banks, cfg, meta["interaction_enabled"])
    return model, novel


def save_translation(run_dir: str | Path, model: MultiTaskModel,
                     tm: TranslationModel) -> None:
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    meta = {
        "arm": "translation",
        **_meta_core(model),
        "novel_task": tm.novel,
        "support_tasks": sorted(tm.support_models),
        "encoder_layers": len(tm.encoder.layers),
        "encoder_heads": tm.encoder.layers[0].num_heads,
    }
    (run_dir / "model_meta.json").write_text(json.dumps(meta, indent=2,
                                                        sort_keys=True))
    _write_arrays(run_dir / "model.npz", _model_params(model))
    for t, m in tm.support_models.items():
        save_multitask(run_dir / "support" / t, m)


def load_translation(run_dir: str | Path
                     ) -> tuple[MultiTaskModel, TranslationModel]:
    run_dir = Path(run_dir)
    meta = json.loads((run_dir / "model_meta.json").read_text())
    world = WorldInfo(**meta["world"])
    model = _rebuild_multitask(meta)
    support = {t: load_multitask(run_dir / "support" / t)
               for t in meta["support_tasks"]}
    rng = np.random.default_rng(0)
    encoder = TranslationParams.init(rng, world.dim,
                                     sorted(support) + [meta["novel_task"]],
                                     num_layers=meta["encoder_layers"],
                                     num_heads=meta["encoder_heads"])
    # the encoder trains as the novel branch's extra weights, so
    # model.npz holds its arrays
    model.branches[meta["novel_task"]].extra = encoder.params()
    _read_arrays(run_dir / "model.npz", _model_params(model))
    for m in support.values():
        for t in m.backbone.params():
            t.requires_grad = False
        for b in m.branches.values():
            for t in b.params():
                t.requires_grad = False
    tm = TranslationModel(model, meta["novel_task"], support, encoder)
    return model, tm
