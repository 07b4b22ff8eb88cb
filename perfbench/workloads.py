"""The benchmark's three workloads, each a closed loop with one caller.

Every training run or evaluation starts only after the previous one has
returned. A workload is run as repetitions: repetition ``r`` of a run with
seed ``s`` generates its inputs from ``sub_seed(s, r)``, so the same seed
always gives the same inputs, and a run that repeats the workload averages
its quality over several corpora.

Only tgk's public API is called, always through the module attribute
(``training.evaluate``, not a bound name), so a tracer that replaces the
attribute sees the call.

Importing this module imports tgk: pin the BLAS thread variables first.
"""

from __future__ import annotations

import math
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from tgk import ablation, synth, training
from tgk.ablation import OrderProbeConfig
from tgk.hierarchy import BackboneConfig
from tgk.layers import LAYER_KINDS
from tgk.synth import SynthConfig, SynthDataset
from tgk.training import TrainConfig

DIM = 32
SEGMENTS = 32
SUPPORT_TASKS = ("ar", "oscc", "pnr")
ORDER_AWARE = ("tdgc", "sgcn")
ORDER_BLIND = ("gcn", "gat", "sage")


def sub_seed(seed: int, rep: int) -> int:
    """Seed of repetition ``rep`` in a run started with ``seed``."""
    return int(np.random.SeedSequence([seed, rep]).generate_state(1)[0])


def _steps(num_items: int, batch: int, epochs: int) -> int:
    return epochs * math.ceil(num_items / batch)


def _train_cfg(seed: int, epochs: int, warmup: int) -> TrainConfig:
    return TrainConfig(epochs=epochs, warmup_epochs=min(warmup, epochs - 1),
                       base_lr=1e-3, batch_videos=8, seed=seed)


class OpFailed(Exception):
    """An operation raised or returned a non-finite score."""


@dataclass
class Rep:
    """Timings, scores and operation counts of one repetition."""

    wall_s: float = 0.0
    steps: int = 0
    eval_videos: int = 0
    quality: float = math.nan
    scores: dict = field(default_factory=dict)
    op_s: dict = field(default_factory=dict)
    op_steps: dict = field(default_factory=dict)
    op_videos: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)


class Runner:
    """Runs the operations of one repetition in order and accounts for them.

    An operation is one training arm, layer kind, bank build or
    evaluation. It fails when it raises or when its score is not finite;
    the first failure ends the repetition.
    """

    def __init__(self, tracer=None):
        self.rep = Rep()
        self.tracer = tracer

    def op(self, kind: str, name: str, fn, *args, steps: int = 0,
           videos: int = 0, score=None, **kwargs):
        rep = self.rep
        rep.attempted += 1
        label = f"{kind}.{name}"
        span = self.tracer.span(label) if self.tracer else nullcontext()
        t0 = time.perf_counter()
        try:
            with span:
                out = fn(*args, **kwargs)
        except Exception as exc:
            rep.failed += 1
            traceback.print_exc(file=sys.stderr)
            raise OpFailed(label) from exc
        dt = time.perf_counter() - t0
        if score is not None:
            value = float(score(out))
            rep.scores[label] = value
            if not math.isfinite(value):
                rep.failed += 1
                raise OpFailed(f"{label} scored {value}")
        rep.op_s[label] = dt
        rep.op_steps[label] = steps
        rep.op_videos[label] = videos
        rep.steps += steps
        rep.eval_videos += videos
        return out

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.rep.errors.append(message)


def _map(result: dict) -> float:
    return result["mq"]["map_avg"]


def _check_map(run: Runner, label: str, value: float) -> None:
    run.check(0.0 <= value <= 100.0, f"{label}: map_avg {value} outside [0, 100]")


# ---------------------------------------------------------------------------
# mq_pyramid: single-task detection on the 4-stage pyramid, then evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MqSizes:
    train_videos: int = 40
    val_videos: int = 12
    epochs: int = 20


def mq_data(seed: int, size: MqSizes) -> SynthConfig:
    return SynthConfig(num_train_videos=size.train_videos,
                       num_val_videos=size.val_videos,
                       segments_per_video=SEGMENTS, dim=DIM, noise=0.1,
                       seed=seed)


def mq_pyramid(seed: int, size: MqSizes, run: Runner) -> None:
    ds = synth.generate_dataset(mq_data(seed, size))
    cfg = _train_cfg(seed, size.epochs, warmup=5)
    backbone = BackboneConfig(d_in=DIM, d_model=DIM, num_stages=4)
    model = run.op("train", "single", training.run_single, "mq", ds, cfg,
                   backbone_cfg=backbone,
                   steps=_steps(len(ds.train), cfg.batch_videos, cfg.epochs))
    result = run.op("eval", "single", training.evaluate, model, ds.val, cfg,
                    videos=len(ds.val), score=_map)
    _check_map(run, "mq", _map(result))
    run.rep.quality = _map(result)


# ---------------------------------------------------------------------------
# order_probe: every layer kind on the ordering probe (no pyramid, no
# detection targets, no detection evaluation)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrderSizes:
    num_windows: int = 2000
    epochs: int = 5


def order_probe_config(size: OrderSizes) -> OrderProbeConfig:
    return OrderProbeConfig(num_windows=size.num_windows, epochs=size.epochs,
                            warmup_epochs=min(5, size.epochs - 1))


def order_probe(seed: int, size: OrderSizes, run: Runner) -> None:
    probe = order_probe_config(size)
    n_train = int(probe.num_windows * probe.train_fraction)
    steps = _steps(n_train, probe.batch_windows, probe.epochs)
    acc = {}
    for kind in LAYER_KINDS:
        out = run.op("train", kind, ablation.run_order_separation, [kind],
                     [seed], probe, steps=steps,
                     score=lambda r, k=kind: r[k]["mean"])
        acc[kind] = out[kind]["mean"]
    # The probe scores its windows inside the same call that trains it, so
    # evaluation cost is taken from an untrained run: window generation,
    # init and one scoring pass over every window.
    untrained = replace(probe, epochs=0)
    for kind in LAYER_KINDS:
        run.op("eval", kind, ablation.run_order_separation, [kind], [seed],
               untrained, videos=probe.num_windows,
               score=lambda r, k=kind: r[k]["mean"])
    # Mirror symmetry pins order-blind layers to chance on any seed.
    n_val = probe.num_windows - n_train
    half_width = max(15.0, 4.0 * 50.0 / math.sqrt(n_val))
    for kind in ORDER_BLIND:
        run.check(abs(acc[kind] - 50.0) <= half_width,
                  f"{kind}: val accuracy {acc[kind]} outside chance band "
                  f"50 +- {half_width:.1f}")
    run.rep.quality = (float(np.mean([acc[k] for k in ORDER_AWARE]))
                       - float(np.mean([acc[k] for k in ORDER_BLIND])))


# ---------------------------------------------------------------------------
# transfer: support MTL, prototype banks, four novel-task arms, evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransferSizes:
    train_videos: int = 40
    novel_videos: int = 8
    val_videos: int = 16
    support_epochs: int = 30
    novel_epochs: int = 60


def transfer_data(seed: int, size: TransferSizes) -> SynthConfig:
    return SynthConfig(num_train_videos=size.train_videos,
                       num_val_videos=size.val_videos,
                       segments_per_video=SEGMENTS, dim=DIM, noise=0.25,
                       seed=seed)


def transfer(seed: int, size: TransferSizes, run: Runner) -> None:
    ds = synth.generate_dataset(transfer_data(seed, size))
    support_cfg = _train_cfg(seed, size.support_epochs, warmup=10)
    novel_cfg = _train_cfg(seed, size.novel_epochs, warmup=10)
    support_steps = _steps(len(ds.train), 8, support_cfg.epochs)
    novel_steps = _steps(size.novel_videos, 8, novel_cfg.epochs)
    novel_ds = SynthDataset(ds.config, ds.train[:size.novel_videos], ds.val)

    support = run.op("train", "mtl", training.run_mtl, SUPPORT_TASKS, ds,
                     support_cfg, steps=support_steps)
    banks = run.op("prep", "banks", training.build_prototype_banks, support,
                   ds, SUPPORT_TASKS)
    bank_bytes = {t: b.prototypes.tobytes() for t, b in banks.items()}
    single = run.op("train", "single", training.run_single, "mq", novel_ds,
                    novel_cfg, steps=novel_steps)
    ft_model, ft_state = run.op(
        "train", "mtl_ft", training.run_novel, "mq", novel_ds, novel_cfg,
        support, banks=None, interaction=False, steps=novel_steps)
    ego_model, ego_state = run.op(
        "train", "egopack", training.run_novel, "mq", novel_ds, novel_cfg,
        support, banks=banks, interaction=True, steps=novel_steps)
    token_models = {
        t: run.op("train", f"support_{t}", training.run_single, t, ds,
                  support_cfg, steps=support_steps)
        for t in SUPPORT_TASKS}
    tr_model, tr_state = run.op(
        "train", "translation", training.run_translation, "mq", novel_ds,
        novel_cfg, token_models, steps=novel_steps)

    n_val = len(ds.val)
    maps = {
        "single": run.op("eval", "single", training.evaluate, single, ds.val,
                         novel_cfg, videos=n_val, score=_map),
        "mtl_ft": run.op("eval", "mtl_ft", training.evaluate, ft_model,
                         ds.val, novel_cfg, novel=ft_state, videos=n_val,
                         score=_map),
        "egopack": run.op("eval", "egopack", training.evaluate, ego_model,
                          ds.val, novel_cfg, novel=ego_state, videos=n_val,
                          score=_map),
        "translation": run.op("eval", "translation", training.evaluate,
                              tr_model, ds.val, novel_cfg,
                              translation=tr_state, videos=n_val,
                              score=_map),
    }
    for arm, result in maps.items():
        _check_map(run, arm, _map(result))
    run.check(all(banks[t].prototypes.tobytes() == bank_bytes[t]
                  for t in banks), "prototype banks changed during training")
    # The egopack arm's mAP alone moves by about 40% of its median from one
    # corpus to the next (interquartile range over ten seeds); the mean of
    # the four arms trained on the same corpus moves about half as much.
    run.rep.quality = float(np.mean([_map(r) for r in maps.values()]))


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    body: Callable[[int, object, Runner], None]
    sizes: object         # sizes the benchmark measures
    quick: object         # sizes for the self-test
    min_reps: int         # repetitions whose quality is averaged
    setup: Callable[[int, object], object]  # input generation alone


def _order_setup(seed: int, size: OrderSizes):
    probe = order_probe_config(size)
    return synth.generate_order_windows(
        probe.num_windows, probe.noise, np.random.default_rng(seed),
        dim=probe.dim, window_segments=probe.window_segments)


WORKLOADS = {
    "mq_pyramid": Workload(
        "mq_pyramid", mq_pyramid, MqSizes(),
        MqSizes(train_videos=8, val_videos=2, epochs=2), min_reps=3,
        setup=lambda seed, size: synth.generate_dataset(mq_data(seed, size))),
    "order_probe": Workload(
        "order_probe", order_probe, OrderSizes(),
        OrderSizes(num_windows=160, epochs=2), min_reps=2,
        setup=_order_setup),
    "transfer": Workload(
        "transfer", transfer, TransferSizes(),
        TransferSizes(train_videos=8, novel_videos=4, val_videos=2,
                      support_epochs=2, novel_epochs=2), min_reps=2,
        setup=lambda seed, size: synth.generate_dataset(
            transfer_data(seed, size))),
}


def run_rep(workload: Workload, seed: int, sizes, tracer=None) -> Rep:
    """One repetition; a failed operation ends it early."""
    run = Runner(tracer)
    t0 = time.perf_counter()
    try:
        workload.body(seed, sizes, run)
    except OpFailed as exc:
        run.rep.errors.append(f"operation failed: {exc}")
    run.rep.wall_s = time.perf_counter() - t0
    return run.rep
