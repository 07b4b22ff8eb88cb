"""Byte fingerprints of every training arm, checked against a recorded file.

Each entry of ``fingerprints.json`` is a sha256: of a run's trained
parameters in ``params()`` order, of ``repr`` of its ``evaluate`` output,
of the logits of the order probe's final scoring pass, of the forecast
logits a novel lta model gives on the val videos, of the encoded rows the
translation arm's ``evaluate`` reads, of one CLI output file, or of every
file ``gen-data`` writes (path and bytes, in sorted path order). The runs
are tiny and execute in a subprocess pinned to one BLAS thread, so the
bytes depend only on the code and the numeric stack. The file records that
stack (numpy version, BLAS build, thread count); on any other stack the
test skips and names the difference rather than compare loosely.

A change that moves bytes on purpose regenerates the file with

    PYTHONPATH=src python tests/test_fingerprints.py --write

and names every changed entry in CHANGES.md; it prints the names of the
entries it added, removed and changed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
RECORD = HERE / "fingerprints.json"
SRC = HERE.parent / "src"
THREAD_VARS = ("TGK_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
TIMEOUT_S = 120

DATA_FLAGS = ["--train-videos", "8", "--val-videos", "3", "--segments", "16",
              "--dim", "12", "--verbs", "4", "--nouns", "3", "--noise", "0.1",
              "--lta-steps", "3", "--seed", "5"]
TRAIN_FLAGS = ["--epochs", "2", "--warmup", "0", "--base-lr", "1e-3",
               "--batch-videos", "4", "--seed", "0"]
SUPPORT = ("ar", "oscc", "pnr")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _params_sha(params) -> str:
    h = hashlib.sha256()
    for t in params:
        h.update(repr(t.data.shape).encode())
        h.update(t.data.tobytes())
    return h.hexdigest()


def _model_params(model) -> list:
    return model.backbone.params() + [
        p for name in model.tasks for p in model.branches[name].params()]


def _forecast_sha(model, novel, videos) -> str:
    """sha256 of the verb and noun logits ``evaluate`` forecasts from, per
    val video it scores."""
    from tgk.synth import lta_annotations
    from tgk.tasks import align_video_intervals, lta_forward
    from tgk.graph import VideoCache
    from tgk.training import _stage_features

    h = hashlib.sha256()
    for video in videos:
        anchor, verbs, _ = lta_annotations(video, model.world.lta_steps)
        if len(verbs) == 0 or anchor[1] <= 0:
            continue
        stages = model.forward_backbone([video])
        feats = _stage_features(model, "lta", stages, [video], novel,
                                VideoCache())
        context, _ = align_video_intervals(feats[0], stages[0].graph, 0,
                                           np.array([anchor]))
        for logits in lta_forward(model.branches["lta"].heads["lta"], context):
            h.update(logits.data.tobytes())
    return h.hexdigest()


def _stack() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "blas": f"{blas['name']} {blas['version']} "
                    f"{blas.get('openblas configuration', '')}".strip(),
            "threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def join_lengths(config, lengths):
    """One corpus from ``generate_dataset`` at ``config`` once per video
    length in ``lengths``, each later set's video ids suffixed with its
    length so that none collides."""
    from tgk.synth import SynthDataset, generate_dataset

    train, val = [], []
    for i, n in enumerate(lengths):
        part = generate_dataset(replace(config, segments_per_video=n))
        for split, videos in ((train, part.train), (val, part.val)):
            split.extend(replace(v, video_id=f"{v.video_id}_{n}") if i else v
                         for v in videos)
    return SynthDataset(config, train, val)


def compute() -> dict:
    """Every fingerprint, keyed by run; run this pinned to one thread."""
    from tgk import ablation, training
    from tgk.ablation import OrderProbeConfig, train_order_probe
    from tgk.cli import main
    from tgk.hierarchy import BackboneConfig
    from tgk.layers import LAYER_KINDS, TDGC_VARIANTS
    from tgk.synth import SynthConfig, generate_dataset
    from tgk.tasks import mlp_forward
    from tgk.training import (
        TrainConfig, build_prototype_banks, evaluate, run_mtl, run_novel,
        run_single, run_translation, translation_forward,
    )

    out = {}

    def record(name, model, metrics):
        out[f"{name}/params"] = _params_sha(_model_params(model))
        out[f"{name}/evaluate"] = _sha(repr(metrics).encode())

    ds = generate_dataset(SynthConfig(
        num_train_videos=8, num_val_videos=3, segments_per_video=16, dim=12,
        num_verbs=4, num_nouns=3, noise=0.1, lta_steps=3, seed=5))
    cfg = TrainConfig(epochs=2, warmup_epochs=0, base_lr=1e-3,
                      batch_videos=4, seed=0)

    singles = {}
    for task in ("ar", "lta", "mq", "oscc", "pnr"):
        singles[task] = run_single(task, ds, cfg)
        record(f"single/{task}", singles[task],
               evaluate(singles[task], ds.val, cfg))
    # The 4-stage pyramid under every other layer kind and pooling, and
    # with a wider edge window. At the default 2 s window every TDGC node
    # has at most two neighbours, so a mean would only divide by 1 or 2;
    # 3.5 s gives larger degrees. The poolings run on 15-segment videos:
    # with an even count every video of a batch starts at an even offset,
    # and batch-ss keeps what video-ss keeps.
    odd = generate_dataset(replace(ds.config, segments_per_video=15))
    for name, data, bb in (
            [(f"layer={k}", ds, BackboneConfig(layer_kind=k))
             for k in sorted(LAYER_KINDS) if k != "tdgc"]
            + [("threshold=3.5", ds, BackboneConfig(threshold_s=3.5))]
            + [(f"pooling={p}", odd, BackboneConfig(pooling=p))
               for p in ("max", "video-ss", "batch-ss")]):
        model = run_single("mq", data, cfg, backbone_cfg=bb)
        record(f"single/mq/{name}", model, evaluate(model, data.val, cfg))
    mtl = run_mtl(("ar", "lta", "mq", "oscc", "pnr"), ds, cfg)
    record("mtl/ar,lta,mq,oscc,pnr", mtl, evaluate(mtl, ds.val, cfg))

    support = run_mtl(SUPPORT, ds, cfg)
    banks = build_prototype_banks(support, ds, SUPPORT)
    for task in ("mq", "lta"):
        for arm, kwargs in (("egopack", dict(banks=banks, interaction=True)),
                            ("mtl-ft", dict(interaction=False)),
                            ("mtl-ht", dict(interaction=False,
                                            freeze_backbone=True))):
            model, novel = run_novel(task, ds, cfg, support, **kwargs)
            record(f"novel/{arm}/{task}", model,
                   evaluate(model, ds.val, cfg, novel=novel))
            if task == "lta":
                out[f"novel/{arm}/lta/forecast"] = _forecast_sha(
                    model, novel, ds.val)

    def translated(data, supports):
        """The mq translation arm over ``supports``' tokens, its metrics,
        and the sha256 of every encoded row its ``evaluate`` reads. The
        metrics dict can round a change in the encoder away; the encoded
        rows cannot."""
        model, tm = run_translation("mq", data, cfg, supports)
        dense = hashlib.sha256()

        def translating(*args, **kwargs):
            rows = translation_forward(*args, **kwargs)
            dense.update(rows.data.tobytes())
            return rows

        training.translation_forward = translating
        try:
            metrics = evaluate(model, data.val, cfg, translation=tm)
        finally:
            training.translation_forward = translation_forward
        return model, metrics, dense.hexdigest()

    # support models are frozen by the translation arm, after their own
    # fingerprints are taken
    model, metrics, dense = translated(ds, {t: singles[t] for t in SUPPORT})
    record("translation/mq", model, metrics)
    out["translation/mq/dense"] = dense
    # The benchmark's token layout: dim 32 and 32 segments, three support
    # tasks plus mq, so 128 tokens in 4 heads of 8 (the runs above encode
    # 64 tokens in heads of 3).
    wide = generate_dataset(replace(ds.config, segments_per_video=32, dim=32))
    model, _, dense = translated(
        wide, {t: run_single(t, wide, cfg) for t in SUPPORT})
    out["translation/mq32/params"] = _params_sha(_model_params(model))
    out["translation/mq32/dense"] = dense

    # Videos of two lengths in one corpus, 24 and 40 segments: batch
    # offsets vary, a batch's stages differ in length (3 and 5 nodes at
    # stage 4), and the translation masks are 96 and 160 tokens wide.
    varied = join_lengths(ds.config, (24, 40))
    model = run_single("mq", varied, cfg)
    record("varied/single/mq", model, evaluate(model, varied.val, cfg))
    support = run_mtl(SUPPORT, varied, cfg)
    record(f"varied/mtl/{','.join(SUPPORT)}", support,
           evaluate(support, varied.val, cfg))
    model, novel = run_novel("mq", varied, cfg, support, interaction=True,
                             banks=build_prototype_banks(support, varied,
                                                         SUPPORT))
    record("varied/novel/egopack/mq", model,
           evaluate(model, varied.val, cfg, novel=novel))
    model, metrics, dense = translated(
        varied, {t: run_single(t, varied, cfg) for t in SUPPORT})
    record("varied/translation/mq", model, metrics)
    out["varied/translation/mq/dense"] = dense

    # The probe's accuracies sit at chance for several layer kinds, so each
    # entry hashes the logits of the probe's final scoring pass instead.
    probe = OrderProbeConfig(num_windows=1000, epochs=2, warmup_epochs=0)
    last = {}

    def capturing(p, x):
        last["logits"] = mlp_forward(p, x)
        return last["logits"]

    ablation.mlp_forward = capturing
    try:
        for name in [*sorted(LAYER_KINDS), *TDGC_VARIANTS]:
            train_order_probe(name, 0, probe)
            out[f"order_probe/{name}"] = _sha(last["logits"].data.tobytes())
    finally:
        ablation.mlp_forward = mlp_forward

    with tempfile.TemporaryDirectory(prefix="tgk_fp_") as tmp:
        ws = Path(tmp)
        data = str(ws / "data")
        steps = [["gen-data", "--out", data] + DATA_FLAGS,
                 ["train-mtl", "--data", data, "--tasks", ",".join(SUPPORT),
                  "--run", str(ws / "support")] + TRAIN_FLAGS,
                 ["train-novel", "--data", data, "--task", "mq",
                  "--method", "mtl-ft", "--support-run", str(ws / "support"),
                  "--run", str(ws / "ft")] + TRAIN_FLAGS]
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in steps:
                assert main(argv) == 0, argv
        for name in ("metrics.json", "config.json"):
            out[f"cli/mtl-ft/{name}"] = _sha((ws / "ft" / name).read_bytes())
        corpus = hashlib.sha256()
        for path in sorted(p for p in Path(data).rglob("*") if p.is_file()):
            corpus.update(path.relative_to(data).as_posix().encode())
            corpus.update(path.read_bytes())
        out["cli/gen-data/corpus"] = corpus.hexdigest()
        # every default kind, at a size where full, no_sign and no_gate differ
        order = ws / "order"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["ablate", "order", "--out", str(order),
                         "--seeds", "0,1", "--windows", "600",
                         "--epochs", "8"]) == 0
        for path in [order / "config.json", order / "metrics.json",
                     *sorted((order / "tables").glob("*.csv"))]:
            out[f"cli/ablate-order/{path.name}"] = _sha(path.read_bytes())
    return out


def run_pinned() -> dict:
    """``compute`` and the numeric stack, from a subprocess on one thread."""
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, str(Path(__file__)), "--print"],
                          env=env, capture_output=True, text=True,
                          timeout=TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"fingerprint run failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def test_fingerprints_match_record():
    recorded = json.loads(RECORD.read_text())
    got = run_pinned()
    for key in ("numpy", "blas", "threads"):
        if got["stack"][key] != recorded["stack"][key]:
            pytest.skip(f"fingerprints were recorded with {key} "
                        f"{recorded['stack'][key]!r}, this run has "
                        f"{got['stack'][key]!r}")
    assert sorted(got["fingerprints"]) == sorted(recorded["fingerprints"])
    moved = [name for name, sha in recorded["fingerprints"].items()
             if got["fingerprints"][name] != sha]
    assert moved == []


def test_order_probe_entries_tell_every_variant_apart():
    from tgk.layers import LAYER_KINDS, TDGC_VARIANTS

    recorded = json.loads(RECORD.read_text())["fingerprints"]
    probes = [sha for name, sha in recorded.items()
              if name.startswith("order_probe/")]
    assert len(probes) == len(LAYER_KINDS) + len(TDGC_VARIANTS)
    assert len(set(probes)) == len(probes)


if __name__ == "__main__":
    if sys.argv[1:] == ["--print"]:
        print(json.dumps({"stack": _stack(), "fingerprints": compute()}))
    elif sys.argv[1:] == ["--write"]:
        old = (json.loads(RECORD.read_text())["fingerprints"]
               if RECORD.exists() else {})
        result = run_pinned()
        RECORD.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
        print(f"wrote {RECORD}")
        new = result["fingerprints"]
        for label, names in (
                ("added", sorted(new.keys() - old.keys())),
                ("removed", sorted(old.keys() - new.keys())),
                ("changed", sorted(k for k in new.keys() & old.keys()
                                   if new[k] != old[k]))):
            print(f"{label}: {len(names)}")
            for name in names:
                print(f"  {name}")
    else:
        raise SystemExit("usage: test_fingerprints.py --write | --print")
