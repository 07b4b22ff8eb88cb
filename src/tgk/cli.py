"""Command-line harness.

Subcommands cover the full experiment lifecycle:

  gen-data          write a synthetic corpus to disk
  train-single      train one task from scratch
  train-mtl         train several tasks with a shared backbone
  build-prototypes  summarize a trained model into prototype banks
  train-novel       train a novel task (egopack / mtl-ft / mtl-ht /
                    single / translation)
  ablate order      ordering probe over layer kinds and tdgc variants
  ablate grid       detection grid over layer kind, pooling and threshold
  eval              re-evaluate a saved run
  report            aggregate several runs into one summary

Every run directory receives ``config.json`` (the resolved experiment
config, the only record ``eval`` rebuilds the run from; for ``ablate``,
the probe or grid settings and the swept axes) and
``metrics.json`` (sorted keys, no timestamps, so reruns with the same
inputs are byte-identical); analytics land in ``tables/*.csv`` and banks
in ``prototypes/``. The ``TGK_THREADS`` environment variable
caps the numerics thread pool.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from .ablation import OrderProbeConfig, run_ablation_grid, run_order_separation
from .config import (
    ExperimentConfig, load_config, save_config, validate_config,
    validate_data,
)
from .egopack import (
    activation_consensus, activation_histogram, knn_match, load_bank,
    save_bank,
)
from .hierarchy import BackboneConfig
from .layers import LAYER_KINDS, TDGC_VARIANTS
from .persist import load_model, load_run, save_run
from .synth import (
    SynthConfig, SynthDataset, generate_dataset, load_dataset, save_dataset,
)
from .tasks import neck_forward
from .training import (
    DENSE_STAGE, MultiTaskModel, TrainConfig, WorldInfo, backbone_layout,
    build_prototype_banks, evaluate, run_mtl, run_novel, run_single,
    run_translation, stage_count_for,
)

__all__ = ["main"]

NOVEL_METHODS = ("egopack", "mtl-ft", "mtl-ht", "single", "translation")
# BackboneConfig fields settable by flag; each flag's dest is its field
BACKBONE_FLAGS = {"layer_kind": "--layer-kind", "pooling": "--pooling",
                  "threshold_s": "--threshold",
                  "layers_per_stage": "--layers-per-stage"}
# ExperimentConfig fields an ``ablate grid`` cell takes from a flag
GRID_FLAGS = {"backbone.layer_kind": "--kinds",
              "backbone.pooling": "--poolings",
              "backbone.threshold_s": "--thresholds",
              "data.num_train_videos": "--train-videos",
              "data.num_val_videos": "--val-videos",
              "data.segments_per_video": "--segments", "data.noise": "--noise",
              "data.seed": "--seeds", "train.epochs": "--epochs"}


def _write_json(run_dir: Path, name: str, payload: dict) -> None:
    run_dir.mkdir(parents=True, exist_ok=True)
    # strict JSON: a missing metric is null, a non-finite one an error
    (run_dir / name).write_text(
        json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _write_table(run_dir: Path, name: str, header: list[str],
                 rows: list) -> None:
    tables = run_dir / "tables"
    tables.mkdir(parents=True, exist_ok=True)
    with open(tables / f"{name}.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _from_flags(cls, args, **given):
    """``cls`` built by field name from the parsed flags and ``given``."""
    return cls(**{f.name: getattr(args, f.name) for f in fields(cls)} | given)


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    # TrainConfig flags store into its fields and default to its defaults.
    # Backbone flags default to None (unset): fresh models then take the
    # BackboneConfig defaults and warm-started ones the support run's values
    p.add_argument("--layer-kind", default=None, help="default: tdgc")
    p.add_argument("--epochs", type=int)
    p.add_argument("--warmup", dest="warmup_epochs", type=int)
    p.add_argument("--base-lr", type=float)
    p.add_argument("--task-lr", action="append", default=[],
                   metavar="TASK=LR", help="per-task lr override, repeatable "
                   "or comma-separated")
    p.add_argument("--batch-videos", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--pooling", default=None, help="default: mean")
    p.add_argument("--threshold", dest="threshold_s", type=float,
                   default=None, help="default: 2.0")
    p.add_argument("--layers-per-stage", type=int, default=None,
                   help="default: 2")
    p.add_argument("--knn-k", type=int)
    p.add_argument("--mq-min-score", type=float)
    p.add_argument("--candidates", dest="num_candidates", type=int)
    p.set_defaults(**{**asdict(TrainConfig()), "task_lr": []})


def _task_rate(entry: str) -> tuple[str, float]:
    """One ``TASK=LR`` entry of ``--task-lr``."""
    name, _, value = entry.partition("=")
    return name, float(value)


def _train_config(args) -> TrainConfig:
    """The flags' ``TrainConfig``; a task given two ``--task-lr`` rates,
    in one flag or across its repeats, exits in one line naming it."""
    given = {}
    for item in args.task_lr:
        for name, rate in _parsed_list("--task-lr", item, _task_rate):
            if name in given:
                raise SystemExit(f"--task-lr: repeated task {name}")
            given[name] = rate
    return _from_flags(TrainConfig, args,
                       task_lr=TrainConfig().task_lr | given)


def _backbone_flags(args) -> dict:
    """Backbone fields passed explicitly on the command line."""
    return {name: getattr(args, name) for name in BACKBONE_FLAGS
            if getattr(args, name) is not None}


def _warm_start_backbone(args, support: MultiTaskModel) -> BackboneConfig:
    """The support run's backbone laid out for the novel task, as
    ``run_novel`` builds it; a passed backbone flag must agree with it."""
    for name, value in _backbone_flags(args).items():
        trained = getattr(support.backbone_cfg, name)
        if value != trained:
            raise SystemExit(
                f"backbone.{name}: {BACKBONE_FLAGS[name]} {value} disagrees "
                f"with the support run {args.support_run}, trained with "
                f"{trained}")
    return replace(support.backbone_cfg,
                   num_stages=stage_count_for([args.task]))


def _experiment_config(args, data_cfg: SynthConfig, tasks, arm: str,
                       support_tasks=(),
                       backbone: BackboneConfig | None = None
                       ) -> ExperimentConfig:
    """Resolved run config; ``backbone`` defaults to a fresh one from the
    backbone flags. An invalid config exits naming the field."""
    if backbone is None:
        backbone = backbone_layout(tasks, data_cfg.dim,
                                   BackboneConfig(**_backbone_flags(args)))
    return _valid(validate_config, ExperimentConfig(
        data=data_cfg, train=_train_config(args), backbone=backbone,
        tasks=tuple(tasks), arm=arm, support_tasks=tuple(support_tasks)))


def _valid(check, cfg, flags=None):
    """``cfg``, if ``check`` accepts it; otherwise exit with the one line
    that names its first invalid field, after the flag that set it when
    ``flags`` maps the field to one."""
    try:
        check(cfg)
    except ValueError as exc:
        flag = (flags or {}).get(str(exc).partition(":")[0])
        raise SystemExit(f"{flag}: {exc}" if flag else str(exc)) from None
    return cfg


def _loaded(path, load, *args):
    """``load(*args)``, reading the input at ``path`` (a corpus, run or
    bank directory); one that does not load (``OSError`` or
    ``ValueError``) exits with one line naming ``path``."""
    try:
        return load(*args)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"{path}: {exc}") from None


def _load_banks(banks_run: str, support: MultiTaskModel) -> dict:
    """Every support task's bank under ``--banks``; a bank that does not
    load, or is not as wide as the support run's features, exits in one
    line naming it."""
    banks = {}
    for task in support.tasks:
        banks[task] = _loaded(banks_run, load_bank,
                              Path(banks_run) / "prototypes", task)
        if banks[task].dim != support.world.dim:
            raise SystemExit(f"{banks_run}: bank {task} has dim "
                             f"{banks[task].dim}, not {support.world.dim}")
    return banks


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_gen_data(args) -> int:
    ds = generate_dataset(
        _valid(validate_data, _from_flags(SynthConfig, args)))
    save_dataset(args.out, ds)
    print(f"wrote {len(ds.train)} train / {len(ds.val)} val videos to {args.out}")
    return 0


def _cmd_train_single(args) -> int:
    return _train_fresh(args, [args.task], "single", {"task": args.task})


def _cmd_train_mtl(args) -> int:
    tasks = sorted(args.tasks.split(","))
    return _train_fresh(args, tasks, "mtl", {"tasks": tasks})


def _train_fresh(args, tasks: list[str], arm: str, labels: dict,
                 train_videos: int | None = None) -> int:
    """Train, save and evaluate a fresh model on ``tasks`` over the first
    ``train_videos`` train videos (None: all); ``labels`` name the tasks
    in metrics.json."""
    ds = _loaded(args.data, load_dataset, args.data)
    cfg = _experiment_config(args, ds.config, tasks, arm)
    run_dir = Path(args.run)
    save_config(run_dir, cfg)
    used = SynthDataset(ds.config, ds.train[:train_videos], ds.val)
    model = run_mtl(tasks, used, cfg.train, backbone_cfg=cfg.backbone)
    save_run(run_dir, model)
    metrics = evaluate(model, ds.val, cfg.train)
    _write_json(run_dir, "metrics.json",
                {"arm": arm, **labels, "metrics": metrics})
    print(json.dumps(metrics, indent=2, sort_keys=True))
    return 0


def _cmd_build_prototypes(args) -> int:
    if args.knn_k < 1:
        raise SystemExit(f"--knn-k: must be at least 1, got {args.knn_k}")
    ds = _loaded(args.data, load_dataset, args.data)
    model = _loaded(args.support_run, load_model, args.support_run)
    support_tasks = (sorted(_parsed_list("--tasks", args.tasks, str))
                     if args.tasks else model.tasks)
    missing = sorted(set(support_tasks) - set(model.tasks))
    if missing:
        raise SystemExit(f"--tasks: the support run {args.support_run} has "
                         f"no {','.join(missing)} branch")
    banks = build_prototype_banks(model, ds, support_tasks)
    run_dir = Path(args.run)
    run_dir.mkdir(parents=True, exist_ok=True)
    for bank in banks.values():
        save_bank(run_dir / "prototypes", bank)

    # analytics on validation-split node features: one backbone pass per
    # video, read by every support task's neck
    rows = {task: [] for task in support_tasks}
    for video in ds.val:
        dense = model.forward_backbone([video])[DENSE_STAGE].features
        for task in support_tasks:
            rows[task].append(
                neck_forward(model.branches[task].neck, dense).data)
    matches = {}
    for task in support_tasks:
        matches[task] = knn_match(np.concatenate(rows[task], axis=0),
                                  banks[task], args.knn_k)
        hist = activation_histogram(matches[task], banks[task])
        _write_table(run_dir, f"activation_histogram_{task}",
                     ["label", "frequency"], hist)
    consensus = activation_consensus(matches, banks)
    _write_table(run_dir, "activation_consensus",
                 ["task_a", "task_b", "consensus"],
                 [(a, b, f"{c:.6f}") for a, b, c in consensus])
    _write_json(run_dir, "metrics.json", {
        "arm": "prototypes",
        "banks": {t: {"num_prototypes": banks[t].size, "dim": banks[t].dim}
                  for t in sorted(banks)},
    })
    print(f"built {len(banks)} banks into {run_dir}")
    return 0


def _cmd_train_novel(args) -> int:
    if args.novel_videos is not None and args.novel_videos < 1:
        raise SystemExit(
            f"--novel-videos: must be at least 1, got {args.novel_videos}")
    if args.method == "single":
        return _train_fresh(args, [args.task], "single", {"task": args.task},
                            args.novel_videos)
    ds = _loaded(args.data, load_dataset, args.data)
    if args.method == "translation":
        cfg = _experiment_config(args, ds.config, [args.task], "translation",
                                 sorted(args.support_tasks.split(",")))
    else:
        if not args.support_run:
            raise SystemExit(f"--support-run is required for {args.method}")
        if args.method == "egopack" and not args.banks:
            raise SystemExit("--banks is required for egopack")
        support = _loaded(args.support_run, load_model, args.support_run)
        if support.world != WorldInfo.from_dataset(ds):
            raise SystemExit(f"data: the support run {args.support_run} was "
                             f"trained on another label space, {support.world}")
        banks = (_load_banks(args.banks, support)
                 if args.method == "egopack" else None)
        cfg = _experiment_config(
            args, ds.config, [args.task], args.method,
            support.tasks if args.method == "egopack" else (),
            _warm_start_backbone(args, support))
    run_dir = Path(args.run)
    save_config(run_dir, cfg)

    novel_ds = SynthDataset(ds.config, ds.train[:args.novel_videos], ds.val)

    novel = tm = None
    if args.method == "translation":
        support_models = {
            t: run_single(t, ds, cfg.train, backbone_cfg=cfg.backbone)
            for t in cfg.support_tasks}
        model, tm = run_translation(args.task, novel_ds, cfg.train,
                                    support_models, backbone_cfg=cfg.backbone)
    else:
        model, novel = run_novel(
            args.task, novel_ds, cfg.train, support, banks=banks,
            interaction=args.method == "egopack",
            freeze_backbone=(args.method == "mtl-ht"))
    save_run(run_dir, model, novel=novel, translation=tm)
    metrics = evaluate(model, ds.val, cfg.train, novel=novel, translation=tm)

    _write_json(run_dir, "metrics.json",
                {"arm": args.method, "task": args.task, "metrics": metrics})
    print(json.dumps(metrics, indent=2, sort_keys=True))
    return 0


def _parsed_list(flag: str, text: str, parse) -> list:
    """``text``'s comma-separated entries through ``parse``; an entry it
    rejects, or one that parses to an earlier entry's value, exits in one
    line naming ``flag``."""
    values = []
    for entry in text.split(","):
        try:
            value = parse(entry)
        except ValueError:
            raise SystemExit(f"{flag}: malformed entry {entry!r}") from None
        if value in values:
            raise SystemExit(f"{flag}: repeated entry {entry}")
        values.append(value)
    return values


def _cmd_ablate_order(args) -> int:
    # the probe has no config validator, so its flags are checked here
    seeds = _parsed_list("--seeds", args.seeds, int)
    if min(seeds) < 0:
        raise SystemExit(f"--seeds: must be non-negative, got {min(seeds)}")
    kinds = _parsed_list("--kinds", args.kinds, str)
    for kind in kinds:
        if kind not in LAYER_KINDS:
            raise SystemExit(f"--kinds: unknown entry {kind!r}; choose "
                             f"from {', '.join(sorted(LAYER_KINDS))}")
    if args.epochs < 1:
        raise SystemExit(f"--epochs: must be at least 1, got {args.epochs}")
    if not 0 <= args.noise < math.inf:
        raise SystemExit(f"--noise: must be non-negative and finite, got "
                         f"{args.noise}")
    probe = OrderProbeConfig(num_windows=args.windows, noise=args.noise,
                             epochs=args.epochs,
                             warmup_epochs=min(5, args.epochs - 1))
    if not 0 < probe.num_train < probe.num_windows:
        raise SystemExit(
            f"--windows: the {probe.train_fraction:g} train split must "
            f"leave a window on each side, got {args.windows}")
    # the kinds, then tdgc and its variants for the sign/gate ablation
    arms = list(dict.fromkeys([*kinds, "tdgc", *TDGC_VARIANTS]))
    run_dir = Path(args.out)
    _write_json(run_dir, "config.json",
                {"probe": asdict(probe), "arms": arms, "seeds": seeds})
    separation = run_order_separation(arms, seeds, probe)
    _write_table(run_dir, "order_separation",
                 ["layer_kind", "mean_val_acc", "per_seed"],
                 [(k, f"{v['mean']:.2f}",
                   " ".join(f"{a:.2f}" for a in v["per_seed"].values()))
                  for k, v in separation.items()])
    _write_json(run_dir, "metrics.json",
                {"arm": "ablate-order", "separation": separation})
    print(f"ablation results in {run_dir}")
    return 0


def _cmd_ablate_grid(args) -> int:
    seeds = _parsed_list("--seeds", args.seeds, int)
    kinds = _parsed_list("--kinds", args.kinds, str)
    poolings = _parsed_list("--poolings", args.poolings, str)
    thresholds = _parsed_list("--thresholds", args.thresholds, float)
    data_cfg = SynthConfig(num_train_videos=args.train_videos,
                           num_val_videos=args.val_videos,
                           segments_per_video=args.segments,
                           noise=args.noise, seed=seeds[0])
    train_cfg = TrainConfig(epochs=args.epochs,
                            warmup_epochs=min(3, args.epochs - 1),
                            seed=seeds[0])
    # every cell's single-task detection run, checked before any trains
    for kind, pooling, thr, seed in itertools.product(kinds, poolings,
                                                      thresholds, seeds):
        backbone = BackboneConfig(layer_kind=kind, pooling=pooling,
                                  threshold_s=thr)
        _valid(validate_config, ExperimentConfig(
            data=replace(data_cfg, seed=seed),
            train=replace(train_cfg, seed=seed),
            backbone=backbone_layout(["mq"], data_cfg.dim, backbone),
            tasks=("mq",), arm="single"), GRID_FLAGS)
    run_dir = Path(args.out)
    _write_json(run_dir, "config.json", {
        "data": asdict(data_cfg), "train": asdict(train_cfg),
        "layer_kinds": kinds, "poolings": poolings,
        "thresholds": thresholds, "seeds": seeds})
    records = run_ablation_grid(
        data_cfg, train_cfg, layer_kinds=kinds, poolings=poolings,
        thresholds=thresholds, seeds=seeds)
    _write_table(run_dir, "ablation_grid",
                 ["layer_kind", "pooling", "threshold_s", "map_avg"],
                 [(r["layer_kind"], r["pooling"], r["threshold_s"],
                   f"{r['map_avg']:.3f}") for r in records])
    _write_json(run_dir, "metrics.json",
                {"arm": "ablate-grid", "records": records})
    print(f"ablation results in {run_dir}")
    return 0


def _cmd_eval(args) -> int:
    ds = _loaded(args.data, load_dataset, args.data)
    run_dir = Path(args.run)
    cfg = _loaded(run_dir, load_config, run_dir)
    model, novel, tm = _loaded(run_dir, load_run, run_dir, cfg)
    metrics = evaluate(model, ds.split(args.split), cfg.train, novel=novel,
                       translation=tm)
    out_dir = Path(args.out) if args.out else run_dir
    _write_json(out_dir, "metrics.json",
                {"arm": cfg.arm, "metrics": metrics, "split": args.split})
    print(json.dumps(metrics, indent=2, sort_keys=True))
    return 0


def _cmd_report(args) -> int:
    out_dir = Path(args.out)
    merged = {}
    rows = []
    for run in args.runs:
        run_dir = Path(run)
        payload = _loaded(run_dir, lambda: json.loads(
            (run_dir / "metrics.json").read_text()))
        merged[run_dir.name] = payload
        metrics = payload.get("metrics", {})
        for task in sorted(metrics):
            for key, value in sorted(metrics[task].items()):
                rows.append((run_dir.name, task, key,
                             "" if value is None else f"{value:.6f}"))
    _write_table(out_dir, "summary", ["run", "task", "metric", "value"], rows)
    _write_json(out_dir, "metrics.json", {"arm": "report", "runs": merged})
    print(f"report across {len(args.runs)} runs in {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tgk", description="temporal-graph toolkit harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write a synthetic corpus")
    # SynthConfig flags store into its fields and default to its defaults
    p.add_argument("--out", required=True)
    p.add_argument("--train-videos", dest="num_train_videos", type=int)
    p.add_argument("--val-videos", dest="num_val_videos", type=int)
    p.add_argument("--segments", dest="segments_per_video", type=int)
    p.add_argument("--dim", type=int)
    p.add_argument("--verbs", dest="num_verbs", type=int)
    p.add_argument("--nouns", dest="num_nouns", type=int)
    p.add_argument("--noise", type=float)
    p.add_argument("--segment-seconds", dest="segment_s", type=float)
    p.add_argument("--event-len-lo", type=int)
    p.add_argument("--event-len-hi", type=int)
    p.add_argument("--lta-steps", type=int)
    p.add_argument("--flat", dest="two_phase", action="store_false",
                   help="single-phase emission inside events")
    p.add_argument("--verb-follow", type=float,
                   help="chance the next verb is the cyclic successor")
    p.add_argument("--noun-repeat", type=float,
                   help="chance the next event keeps its noun")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_gen_data, **asdict(SynthConfig()))

    p = sub.add_parser("train-single", help="train one task from scratch")
    p.add_argument("--data", required=True)
    p.add_argument("--task", required=True)
    p.add_argument("--run", required=True)
    _add_train_flags(p)
    p.set_defaults(func=_cmd_train_single)

    p = sub.add_parser("train-mtl", help="shared-backbone multi-task training")
    p.add_argument("--data", required=True)
    p.add_argument("--tasks", required=True, help="comma-separated task names")
    p.add_argument("--run", required=True)
    _add_train_flags(p)
    p.set_defaults(func=_cmd_train_mtl)

    p = sub.add_parser("build-prototypes",
                       help="freeze a trained model into prototype banks")
    p.add_argument("--data", required=True)
    p.add_argument("--support-run", required=True)
    p.add_argument("--run", required=True)
    p.add_argument("--tasks", default=None)
    p.add_argument("--knn-k", type=int, default=8)
    p.set_defaults(func=_cmd_build_prototypes)

    p = sub.add_parser("train-novel", help="train a novel task arm")
    p.add_argument("--data", required=True)
    p.add_argument("--task", required=True)
    p.add_argument("--method", choices=NOVEL_METHODS, default="egopack")
    p.add_argument("--support-run", default=None)
    p.add_argument("--banks", default=None)
    p.add_argument("--support-tasks", default="ar,oscc,pnr",
                   help="tasks for the translation arm's token providers")
    p.add_argument("--novel-videos", type=int, default=None,
                   help="restrict the novel phase to the first N train videos")
    p.add_argument("--run", required=True)
    _add_train_flags(p)
    p.set_defaults(func=_cmd_train_novel)

    p = sub.add_parser("ablate", help="ordering probe or detection grid")
    modes = p.add_subparsers(dest="mode", required=True)
    order = modes.add_parser("order", help="ordering probe over layer kinds")
    grid = modes.add_parser("grid", help="detection grid over the pyramid")
    for q in (order, grid):
        q.add_argument("--out", required=True)
        q.add_argument("--seeds", default="0,1,2")
        q.add_argument("--kinds", default="tdgc,sgcn,sage-pe,sage,gcn,gat")
        q.add_argument("--noise", type=float, default=0.1)
        q.add_argument("--epochs", type=int, default=30)
    order.add_argument("--windows", type=int, default=2000)
    order.set_defaults(func=_cmd_ablate_order)
    grid.add_argument("--poolings", default="mean")
    grid.add_argument("--thresholds", default="2.0")
    grid.add_argument("--train-videos", type=int, default=60)
    grid.add_argument("--val-videos", type=int, default=20)
    grid.add_argument("--segments", type=int, default=32)
    grid.set_defaults(func=_cmd_ablate_grid)

    p = sub.add_parser("eval", help="re-evaluate a saved run")
    p.add_argument("--run", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="val", choices=("train", "val"))
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("report", help="aggregate metrics across runs")
    p.add_argument("--runs", nargs="+", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
