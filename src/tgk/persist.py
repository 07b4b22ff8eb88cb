"""Saving and loading trained models inside run directories.

``config.json`` is the only description of a run: ``load_run`` rebuilds
its model from the ``ExperimentConfig`` alone, replaying the construction
code path of training, and then overwrites the arrays of ``model.npz``,
which holds every parameter in the model's canonical ``params()`` order.
Arm-specific extras sit beside it: ``support_necks.npz`` and the banks in
``prototypes/`` (egopack), and ``support/<task>/model.npz`` per token
model (translation).
"""

from __future__ import annotations

import zipfile
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, load_config
from .egopack import load_bank, save_bank
from .tasks import MlpParams
from .training import (
    MultiTaskModel, NovelModel, TranslationModel, WorldInfo, _egopack_arm,
    _translation_arm, backbone_layout,
)

__all__ = ["save_run", "load_run", "load_model"]


def _write_arrays(path: Path, params: list) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez(path, **{f"p{i:05d}": t.data for i, t in enumerate(params)})


def _read_arrays(path: Path, params: list) -> None:
    """Load ``path``'s arrays into ``params``, in place, so a parameter
    bound to an optimizer's buffer stays bound; an archive that does not
    read, a member whose CRC fails included, or an array holding a
    non-finite value raises ``ValueError``."""
    try:
        with np.load(path) as npz:
            if len(npz.files) != len(params):
                raise ValueError(f"{path}: holds {len(npz.files)} arrays, "
                                 f"model wants {len(params)}")
            for i, t in enumerate(params):
                arr = npz[f"p{i:05d}"]
                if arr.shape != t.data.shape:
                    raise ValueError(f"{path}: param {i} shape mismatch "
                                     f"{arr.shape} vs {t.data.shape}")
                if not np.isfinite(arr).all():
                    raise ValueError(f"{path}: param {i} holds a non-finite "
                                     f"value")
                t.data[...] = arr
    except zipfile.BadZipFile as exc:
        raise ValueError(f"{path}: not a readable array archive: {exc}"
                         ) from None


def _neck_params(necks: dict[str, MlpParams]) -> list:
    return [t for name in sorted(necks) for t in necks[name].params()]


def save_run(run_dir: str | Path, model: MultiTaskModel,
             novel: NovelModel | None = None,
             translation: TranslationModel | None = None) -> None:
    """Write a trained model's arrays: ``model.npz`` (with interaction or
    encoder weights), plus the frozen support necks and banks of a novel
    model, or each token model of a translation model."""
    run_dir = Path(run_dir)
    _write_arrays(run_dir / "model.npz", model.params())
    if novel is not None:
        _write_arrays(run_dir / "support_necks.npz",
                      _neck_params(novel.support_necks))
        for bank in novel.banks.values():
            save_bank(run_dir / "prototypes", bank)
    if translation is not None:
        for t, m in translation.support_models.items():
            _write_arrays(run_dir / "support" / t / "model.npz", m.params())


def load_run(run_dir: str | Path, cfg: ExperimentConfig
             ) -> tuple[MultiTaskModel, NovelModel | None,
                        TranslationModel | None]:
    """Rebuild the model of the run ``cfg`` describes and load its arrays;
    the novel or translation model is None unless ``cfg.arm`` has one. A
    transfer arm is laid out by the helper training builds it with, so
    ``model.npz`` reads back in the order it was written."""
    run_dir = Path(run_dir)
    world = WorldInfo.from_config(cfg.data)
    rng = np.random.default_rng(0)
    model = MultiTaskModel.init(rng, cfg.tasks, world, cfg.backbone)
    novel = translation = None
    task = cfg.tasks[0]
    if cfg.arm == "egopack":
        banks = {t: load_bank(run_dir / "prototypes", t)
                 for t in cfg.support_tasks}
        # neck-shaped placeholders, overwritten from support_necks.npz
        shells = {t: MlpParams.init(rng, world.dim, world.dim, world.dim)
                  for t in banks}
        novel = _egopack_arm(model, task, shells, banks, cfg.train, rng)
        _read_arrays(run_dir / "support_necks.npz",
                     _neck_params(novel.support_necks))
    elif cfg.arm == "translation":
        support = {}
        for t in cfg.support_tasks:
            support[t] = MultiTaskModel.init(
                rng, [t], world, backbone_layout([t], world.dim, cfg.backbone))
            _read_arrays(run_dir / "support" / t / "model.npz",
                         support[t].params())
        translation = _translation_arm(model, task, support, rng)
    _read_arrays(run_dir / "model.npz", model.params())
    return model, novel, translation


def load_model(run_dir: str | Path) -> MultiTaskModel:
    """The trained model of a support run (``train-single``/``train-mtl``)."""
    return load_run(run_dir, load_config(run_dir))[0]
