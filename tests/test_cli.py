"""End-to-end command-line tests.

One tiny corpus is generated once and every subcommand runs against it
in a shared temporary workspace. The persistence paths get real
coverage here: each training arm's run directory is re-evaluated from
disk and must reproduce the train-time metrics exactly, and repeated
runs with the same arguments must leave byte-identical metrics files.
"""

import itertools
import json
import shutil
import struct
import tempfile
import zipfile
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from tgk.ablation import OrderProbeConfig
from tgk.cli import main
from tgk.config import ExperimentConfig, load_config, validate_config
from tgk.egopack import load_bank, save_bank
from tgk.hierarchy import BackboneConfig
from tgk.layers import TdgcParams
from tgk.persist import load_run
from tgk.synth import (
    SynthConfig, generate_dataset, load_dataset, save_dataset,
)
from tgk.training import (
    MultiTaskModel, TrainConfig, backbone_layout, build_prototype_banks,
    evaluate, run_mtl, run_novel, run_single,
)

_CACHE = {}

DATA_FLAGS = ["--train-videos", "8", "--val-videos", "3", "--segments", "16",
              "--dim", "12", "--verbs", "4", "--nouns", "3", "--noise", "0.1",
              "--lta-steps", "3", "--seed", "5"]
TRAIN_FLAGS = ["--epochs", "2", "--warmup", "1", "--base-lr", "1e-3",
               "--batch-videos", "4", "--seed", "0"]


def workspace() -> Path:
    """Shared corpus plus baseline runs, built once."""
    if "ws" not in _CACHE:
        ws = Path(tempfile.mkdtemp(prefix="tgk_cli_"))
        assert main(["gen-data", "--out", str(ws / "data")] + DATA_FLAGS) == 0
        assert main(["train-single", "--data", str(ws / "data"),
                     "--task", "oscc", "--run", str(ws / "run_single_oscc")]
                    + TRAIN_FLAGS) == 0
        assert main(["train-mtl", "--data", str(ws / "data"),
                     "--tasks", "ar,oscc", "--run", str(ws / "run_mtl")]
                    + TRAIN_FLAGS) == 0
        _CACHE["ws"] = ws
    return _CACHE["ws"]


def metrics_of(run_dir: Path) -> dict:
    return json.loads((run_dir / "metrics.json").read_text())


# ---------------------------------------------------------------------------
# data generation
# ---------------------------------------------------------------------------


def test_gen_data_matches_in_process_generation():
    ws = workspace()
    ds = load_dataset(ws / "data")
    ref = generate_dataset(SynthConfig(
        num_train_videos=8, num_val_videos=3, segments_per_video=16, dim=12,
        num_verbs=4, num_nouns=3, noise=0.1, lta_steps=3, seed=5))
    assert len(ds.train) == 8 and len(ds.val) == 3
    for got, want in zip(ds.train + ds.val, ref.train + ref.val):
        assert got.video_id == want.video_id
        # features are float32 on disk, float64 in memory: the two differ
        # by float32 rounding and nothing else
        assert got.features.dtype == want.features.dtype == np.float64
        assert np.array_equal(got.features,
                              want.features.astype("<f4").astype(np.float64))
        assert len(got.events) == len(want.events)
        assert all(vars(a) == vars(b) for a, b in zip(got.events, want.events))


def test_gen_data_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["gen-data", "--out", str(out)] + DATA_FLAGS) == 0
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    assert files_a == files_b and files_a
    for rel in files_a:
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel


@pytest.mark.parametrize("flags, message", [
    (["--event-len-lo", "0", "--event-len-hi", "0"],
     "data.event_len_lo: must be >= 1, got 0"),
    (["--event-len-lo", "3", "--event-len-hi", "2"],
     "data.event_len_hi: must be >= event_len_lo (3), got 2"),
    (["--seed", "-1"], "data.seed: must be >= 0, got -1"),
    (["--dim", "3"], "data.dim: must be even and >= 2"),
    (["--verbs", "1"], "data.num_verbs: must be >= 2, got 1"),
    (["--verb-follow", "2"], "data.verb_follow: must lie in [0, 1], got 2.0"),
    (["--segment-seconds", "0"], "data.segment_s: must be positive, got 0.0"),
    (["--segments", "0"], "data.segments_per_video: must be >= 1, got 0"),
    (["--train-videos", "0"], "data.num_train_videos: must be >= 1, got 0"),
    (["--val-videos", "0"], "data.num_val_videos: must be >= 1, got 0"),
    (["--lta-steps", "0"], "data.lta_steps: must be >= 1, got 0"),
    (["--segment-seconds", "inf"], "data.segment_s: must be finite, got inf"),
    (["--noise", "nan"], "data.noise: must be non-negative and finite, got nan"),
    (["--noise", "inf"], "data.noise: must be non-negative and finite, got inf"),
    (["--noise", "-0.1"],
     "data.noise: must be non-negative and finite, got -0.1"),
])
def test_gen_data_rejects_corpus_no_run_accepts(tmp_path, capsys, flags,
                                                message):
    # a zero-length event would loop forever, a reversed range or a
    # negative seed end in a numpy traceback, the rest write a corpus
    # every training command refuses
    out = tmp_path / "data"
    assert_exits_in_one_line(["gen-data", "--out", str(out)] + DATA_FLAGS
                             + flags, out, message)
    assert capsys.readouterr().out == ""


# ---------------------------------------------------------------------------
# training runs and their layout
# ---------------------------------------------------------------------------


def test_train_single_run_layout():
    run = workspace() / "run_single_oscc"
    assert (run / "config.json").is_file()
    payload = metrics_of(run)
    assert payload["arm"] == "single"
    assert payload["task"] == "oscc"
    assert 0.0 <= payload["metrics"]["oscc"]["top1"] <= 100.0


def test_train_mtl_covers_both_tasks():
    payload = metrics_of(workspace() / "run_mtl")
    assert payload["arm"] == "mtl"
    assert payload["tasks"] == ["ar", "oscc"]
    assert set(payload["metrics"]) == {"ar", "oscc"}


def test_repeat_training_is_byte_identical(tmp_path):
    ws = workspace()
    for name in ("r1", "r2"):
        assert main(["train-single", "--data", str(ws / "data"),
                     "--task", "oscc", "--run", str(tmp_path / name)]
                    + TRAIN_FLAGS) == 0
    assert (tmp_path / "r1" / "metrics.json").read_bytes() == \
        (tmp_path / "r2" / "metrics.json").read_bytes()
    assert (tmp_path / "r1" / "config.json").read_bytes() == \
        (tmp_path / "r2" / "config.json").read_bytes()


# ---------------------------------------------------------------------------
# saved runs re-evaluate to the same numbers
# ---------------------------------------------------------------------------


def test_eval_reproduces_training_metrics(tmp_path):
    ws = workspace()
    out = tmp_path / "ev"
    assert main(["eval", "--run", str(ws / "run_single_oscc"),
                 "--data", str(ws / "data"), "--split", "val",
                 "--out", str(out)]) == 0
    payload = metrics_of(out)
    assert payload["split"] == "val"
    assert payload["metrics"] == metrics_of(ws / "run_single_oscc")["metrics"]


def test_eval_is_byte_deterministic(tmp_path):
    ws = workspace()
    for name in ("e1", "e2"):
        assert main(["eval", "--run", str(ws / "run_mtl"),
                     "--data", str(ws / "data"), "--split", "val",
                     "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / "e1" / "metrics.json").read_bytes() == \
        (tmp_path / "e2" / "metrics.json").read_bytes()


def test_eval_supports_train_split(tmp_path):
    ws = workspace()
    out = tmp_path / "ev_train"
    assert main(["eval", "--run", str(ws / "run_single_oscc"),
                 "--data", str(ws / "data"), "--split", "train",
                 "--out", str(out)]) == 0
    assert metrics_of(out)["split"] == "train"


# ---------------------------------------------------------------------------
# prototype banks and the novel-task arms
# ---------------------------------------------------------------------------


def proto_run() -> Path:
    ws = workspace()
    if "proto" not in _CACHE:
        run = ws / "run_proto"
        assert main(["build-prototypes", "--data", str(ws / "data"),
                     "--support-run", str(ws / "run_mtl"),
                     "--run", str(run), "--knn-k", "4"]) == 0
        _CACHE["proto"] = run
    return _CACHE["proto"]


def test_build_prototypes_writes_banks_and_tables():
    run = proto_run()
    names = {p.name for p in (run / "prototypes").iterdir()}
    assert any("ar" in n for n in names)
    assert any("oscc" in n for n in names)
    assert (run / "tables" / "activation_histogram_ar.csv").is_file()
    assert (run / "tables" / "activation_consensus.csv").is_file()
    payload = metrics_of(run)
    assert sorted(payload["banks"]) == ["ar", "oscc"]
    assert payload["banks"]["ar"]["dim"] == 12
    assert payload["banks"]["ar"]["num_prototypes"] > 0


def test_build_prototypes_runs_backbone_once_per_video(tmp_path, monkeypatch):
    ws = workspace()
    calls = []
    real = MultiTaskModel.forward_backbone

    def counting(self, videos):
        calls.append(1)
        return real(self, videos)

    monkeypatch.setattr(MultiTaskModel, "forward_backbone", counting)
    run = tmp_path / "protos"
    assert main(["build-prototypes", "--data", str(ws / "data"),
                 "--support-run", str(ws / "run_mtl"), "--run", str(run),
                 "--knn-k", "4"]) == 0
    ds = load_dataset(ws / "data")
    # one pass per train video for the banks, one per val video for the
    # k-NN analytics of every support task
    assert len(calls) == len(ds.train) + len(ds.val)


def ego_run() -> Path:
    """An egopack pnr run on the shared support run and banks, built once."""
    ws = workspace()
    if "ego" not in _CACHE:
        run = ws / "run_ego"
        assert main(["train-novel", "--data", str(ws / "data"), "--task",
                     "pnr", "--method", "egopack", "--support-run",
                     str(ws / "run_mtl"), "--banks", str(proto_run()),
                     "--run", str(run)] + TRAIN_FLAGS) == 0
        _CACHE["ego"] = run
    return _CACHE["ego"]


def test_train_novel_egopack_round_trip(tmp_path):
    ws = workspace()
    run = ego_run()
    payload = metrics_of(run)
    assert payload["arm"] == "egopack"
    assert payload["task"] == "pnr"
    assert "loc_err_s" in payload["metrics"]["pnr"]
    out = tmp_path / "ego_eval"
    assert main(["eval", "--run", str(run), "--data", str(ws / "data"),
                 "--split", "val", "--out", str(out)]) == 0
    assert metrics_of(out)["metrics"] == payload["metrics"]


def test_egopack_run_loads_whatever_order_config_lists_supports(tmp_path):
    # the interaction stacks are laid out in sorted support-task order by
    # the one helper training and loading share, so the order config.json
    # lists them in cannot swap one task's weights into another's stack
    ws = workspace()
    run = ego_run()
    flipped = tmp_path / "flipped"
    shutil.copytree(run, flipped)
    raw = json.loads((flipped / "config.json").read_text())
    assert raw["support_tasks"] == ["ar", "oscc"]
    raw["support_tasks"].reverse()
    (flipped / "config.json").write_text(json.dumps(raw))
    _, want, _ = load_run(run, load_config(run))
    _, got, _ = load_run(flipped, load_config(flipped))
    assert sorted(got.interactions) == ["ar", "oscc"]
    for t in ("ar", "oscc"):
        assert [p.data.tobytes() for p in got.interactions[t].params()] == \
            [p.data.tobytes() for p in want.interactions[t].params()]
    outs = []
    for name, src in (("e1", run), ("e2", flipped)):
        assert main(["eval", "--run", str(src), "--data", str(ws / "data"),
                     "--out", str(tmp_path / name)]) == 0
        outs.append(metrics_of(tmp_path / name)["metrics"])
    assert outs[0] == outs[1] == metrics_of(run)["metrics"]


def test_cli_metrics_equal_the_api_run(tmp_path):
    """``metrics.json`` of a CLI run holds exactly what ``evaluate`` returns
    for the same run done through the API on the saved corpus."""
    ws = workspace()
    ds = load_dataset(ws / "data")
    cfg = TrainConfig(epochs=2, warmup_epochs=1, base_lr=1e-3,
                      batch_videos=4, seed=0)  # TRAIN_FLAGS

    def same(run: Path, metrics: dict) -> None:
        assert metrics_of(run)["metrics"] == json.loads(json.dumps(metrics))

    run = tmp_path / "single_mq"
    assert main(["train-single", "--data", str(ws / "data"), "--task", "mq",
                 "--run", str(run)] + TRAIN_FLAGS) == 0
    same(run, evaluate(run_single("mq", ds, cfg), ds.val, cfg))
    support = run_mtl(["ar", "oscc"], ds, cfg)
    same(ws / "run_mtl", evaluate(support, ds.val, cfg))
    # run directories store banks as float32, so the API run reads its
    # banks back through the same files
    for bank in build_prototype_banks(support, ds).values():
        save_bank(tmp_path / "prototypes", bank)
    banks = {t: load_bank(tmp_path / "prototypes", t) for t in support.tasks}
    model, novel = run_novel("pnr", ds, cfg, support, banks=banks)
    same(ego_run(), evaluate(model, ds.val, cfg, novel=novel))


def test_train_novel_baseline_methods(tmp_path):
    ws = workspace()
    single = tmp_path / "run_novel_single"
    assert main(["train-novel", "--data", str(ws / "data"), "--task", "pnr",
                 "--method", "single", "--run", str(single)]
                + TRAIN_FLAGS) == 0
    assert metrics_of(single)["arm"] == "single"
    ht = tmp_path / "run_novel_ht"
    assert main(["train-novel", "--data", str(ws / "data"), "--task", "pnr",
                 "--method", "mtl-ht", "--support-run", str(ws / "run_mtl"),
                 "--run", str(ht)] + TRAIN_FLAGS) == 0
    assert metrics_of(ht)["arm"] == "mtl-ht"


def test_train_novel_restricts_to_first_videos(tmp_path):
    ws = workspace()
    run = tmp_path / "run_novel_few"
    assert main(["train-novel", "--data", str(ws / "data"), "--task", "pnr",
                 "--method", "mtl-ft", "--support-run", str(ws / "run_mtl"),
                 "--novel-videos", "3", "--run", str(run)]
                + TRAIN_FLAGS) == 0
    assert metrics_of(run)["arm"] == "mtl-ft"


def test_train_novel_translation_round_trip(tmp_path):
    ws = workspace()
    run = tmp_path / "run_tr"
    assert main(["train-novel", "--data", str(ws / "data"), "--task", "oscc",
                 "--method", "translation", "--support-tasks", "ar",
                 "--run", str(run)] + TRAIN_FLAGS) == 0
    payload = metrics_of(run)
    assert payload["arm"] == "translation"
    # the encoder's weights are stored once, inside model.npz
    assert not (run / "encoder.npz").exists()
    out = tmp_path / "tr_eval"
    assert main(["eval", "--run", str(run), "--data", str(ws / "data"),
                 "--split", "val", "--out", str(out)]) == 0
    assert metrics_of(out)["metrics"] == payload["metrics"]


def test_train_novel_flag_requirements(tmp_path):
    ws = workspace()
    with pytest.raises(SystemExit):
        main(["train-novel", "--data", str(ws / "data"), "--task", "pnr",
              "--method", "egopack", "--support-run", str(ws / "run_mtl"),
              "--run", str(tmp_path / "x")] + TRAIN_FLAGS)
    with pytest.raises(SystemExit):
        main(["train-novel", "--data", str(ws / "data"), "--task", "pnr",
              "--method", "mtl-ft", "--run", str(tmp_path / "y")]
             + TRAIN_FLAGS)
    # a rejected command leaves no run directory behind
    assert not (tmp_path / "x").exists() and not (tmp_path / "y").exists()


def test_train_novel_rejects_support_run_on_another_label_space(tmp_path):
    # config.json's data section is the label space the novel model is
    # rebuilt with, so it must be the support run's
    ws = workspace()
    other = tmp_path / "data_lta4"
    flags = list(DATA_FLAGS)
    flags[flags.index("--lta-steps") + 1] = "4"
    assert main(["gen-data", "--out", str(other)] + flags) == 0
    run = tmp_path / "run"
    with pytest.raises(SystemExit) as exc:
        main(["train-novel", "--data", str(other), "--task", "lta",
              "--method", "mtl-ft", "--support-run", str(ws / "run_mtl"),
              "--run", str(run)] + TRAIN_FLAGS)
    assert str(exc.value.code).startswith("data: ")
    assert not run.exists()


def assert_exits_in_one_line(argv: list[str], run: Path, start: str) -> None:
    """``argv`` exits with one line starting ``start`` and leaves no
    ``run`` directory behind."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert isinstance(exc.value.code, str)
    assert exc.value.code.startswith(start)
    assert "\n" not in exc.value.code
    assert not run.exists()


def test_build_prototypes_rejects_task_the_support_run_lacks(tmp_path):
    ws = workspace()
    run = tmp_path / "protos"
    assert_exits_in_one_line(
        ["build-prototypes", "--data", str(ws / "data"), "--support-run",
         str(ws / "run_mtl"), "--tasks", "ar,pnr", "--run", str(run)],
        run, f"--tasks: the support run {ws / 'run_mtl'} has no pnr branch")


def test_build_prototypes_rejects_knn_k_below_one(tmp_path):
    ws = workspace()
    run = tmp_path / "protos"
    for k in ("0", "-2"):
        assert_exits_in_one_line(
            ["build-prototypes", "--data", str(ws / "data"), "--support-run",
             str(ws / "run_mtl"), "--knn-k", k, "--run", str(run)],
            run, f"--knn-k: must be at least 1, got {k}")


def test_train_novel_rejects_directory_without_banks(tmp_path):
    ws = workspace()
    empty = tmp_path / "empty"
    empty.mkdir()
    run = tmp_path / "run"
    assert_exits_in_one_line(
        ["train-novel", "--data", str(ws / "data"), "--task", "pnr",
         "--method", "egopack", "--support-run", str(ws / "run_mtl"),
         "--banks", str(empty), "--run", str(run)] + TRAIN_FLAGS,
        run, f"{empty}: ")


def test_train_novel_rejects_banks_of_another_width(tmp_path):
    ws = workspace()
    wide = tmp_path / "data16"
    flags = list(DATA_FLAGS)
    flags[flags.index("--dim") + 1] = "16"
    protos = tmp_path / "protos16"
    for argv in (["gen-data", "--out", str(wide)] + flags,
                 ["train-mtl", "--data", str(wide), "--tasks", "ar,oscc",
                  "--run", str(tmp_path / "mtl16")] + TRAIN_FLAGS,
                 ["build-prototypes", "--data", str(wide), "--support-run",
                  str(tmp_path / "mtl16"), "--run", str(protos)]):
        assert main(argv) == 0
    run = tmp_path / "run"
    assert_exits_in_one_line(
        ["train-novel", "--data", str(ws / "data"), "--task", "pnr",
         "--method", "egopack", "--support-run", str(ws / "run_mtl"),
         "--banks", str(protos), "--run", str(run)] + TRAIN_FLAGS,
        run, f"{protos}: bank ar has dim 16, not 12")


def copied_banks(tmp_path: Path) -> Path:
    """A copy of ``proto_run``'s banks, for a test to corrupt."""
    protos = tmp_path / "protos"
    shutil.copytree(proto_run() / "prototypes", protos / "prototypes")
    return protos


def egopack_argv(protos: Path, run: Path) -> list[str]:
    ws = workspace()
    return ["train-novel", "--data", str(ws / "data"), "--task", "pnr",
            "--method", "egopack", "--support-run", str(ws / "run_mtl"),
            "--banks", str(protos), "--run", str(run)] + TRAIN_FLAGS


def test_train_novel_rejects_bank_with_non_finite_rows(tmp_path):
    protos = copied_banks(tmp_path)
    blob = bytearray((protos / "prototypes" / "oscc.bin").read_bytes())
    blob[4:8] = np.array([np.nan], dtype="<f4").tobytes()
    (protos / "prototypes" / "oscc.bin").write_bytes(bytes(blob))
    run = tmp_path / "run"
    assert_exits_in_one_line(
        egopack_argv(protos, run), run,
        f"{protos}: bank oscc: prototypes hold non-finite values")


def test_train_novel_rejects_bank_without_rows(tmp_path):
    protos = copied_banks(tmp_path)
    index = protos / "prototypes" / "oscc.json"
    raw = json.loads(index.read_text())
    raw.update(num_prototypes=0, keys=[])
    index.write_text(json.dumps(raw))
    (protos / "prototypes" / "oscc.bin").write_bytes(b"")
    run = tmp_path / "run"
    assert_exits_in_one_line(egopack_argv(protos, run), run,
                             f"{protos}: bank oscc: holds no prototypes")


def test_train_novel_rejects_bank_without_dim(tmp_path):
    protos = copied_banks(tmp_path)
    index = protos / "prototypes" / "ar.json"
    raw = json.loads(index.read_text())
    del raw["dim"]
    index.write_text(json.dumps(raw))
    run = tmp_path / "run"
    assert_exits_in_one_line(egopack_argv(protos, run), run,
                             f"{protos}: {index}: missing key dim")


def test_train_novel_rejects_bank_with_float_dim(tmp_path):
    protos = copied_banks(tmp_path)
    index = protos / "prototypes" / "ar.json"
    raw = json.loads(index.read_text())
    raw["dim"] = float(raw["dim"])
    index.write_text(json.dumps(raw))
    run = tmp_path / "run"
    assert_exits_in_one_line(
        egopack_argv(protos, run), run,
        f"{protos}: {index}: dim must be a non-negative integer, "
        f"got {raw['dim']!r}")


def test_train_novel_rejects_non_positive_video_count(tmp_path):
    ws = workspace()
    run = tmp_path / "run"
    for count in ("-5", "0"):
        assert_exits_in_one_line(
            ["train-novel", "--data", str(ws / "data"), "--task", "pnr",
             "--method", "mtl-ft", "--support-run", str(ws / "run_mtl"),
             "--novel-videos", count, "--run", str(run)] + TRAIN_FLAGS,
            run, f"--novel-videos: must be at least 1, got {count}")


@pytest.mark.parametrize("command", ["train-single", "train-novel"])
def test_training_rejects_negative_seed(tmp_path, command):
    run = tmp_path / "run"
    assert_exits_in_one_line(
        data_argv(command, workspace() / "data", run) + ["--seed", "-1"],
        run, "train.seed: must be >= 0, got -1")


@pytest.mark.parametrize("flags,message", [
    (["--base-lr", "nan"], "train.base_lr: must be positive and finite, "
                           "got nan"),
    (["--base-lr", "inf"], "train.base_lr: must be positive and finite, "
                           "got inf"),
    (["--threshold", "nan"], "backbone.threshold_s: must be positive and "
                             "finite, got nan"),
    (["--threshold", "inf"], "backbone.threshold_s: must be positive and "
                             "finite, got inf"),
    (["--mq-min-score", "1.5"], "train.mq_min_score: must lie in [0, 1], "
                                "got 1.5"),
    (["--mq-min-score", "nan"], "train.mq_min_score: must lie in [0, 1], "
                                "got nan"),
    # a negative warmup shifted the schedule: lr_at(0) was not 0
    (["--warmup", "-1"], "train.warmup_epochs: must be >= 0, got -1")])
def test_training_rejects_non_finite_or_out_of_range_float(tmp_path, flags,
                                                           message):
    # each used to be written into config.json: a nan rate ended in a
    # traceback, a nan threshold trained an edgeless graph
    run = tmp_path / "run"
    assert_exits_in_one_line(
        data_argv("train-single", workspace() / "data", run) + flags, run,
        message)


def test_task_lr_records_every_entry(tmp_path):
    run = tmp_path / "run"
    assert main(data_argv("train-single", workspace() / "data", run)
                + ["--task-lr", "oscc=3e-5,ar=2e-4", "--task-lr",
                   "lta=1e-6"]) == 0
    assert load_config(run).train.task_lr == {
        "ar": 2e-4, "lta": 1e-6, "oscc": 3e-5, "pnr": 1e-5}


def test_task_lr_entry_without_rate_exits_in_one_line(tmp_path):
    run = tmp_path / "run"
    assert_exits_in_one_line(
        data_argv("train-single", workspace() / "data", run)
        + ["--task-lr", "ar"], run, "--task-lr: malformed entry 'ar'")


def test_task_lr_rejects_non_positive_rate(tmp_path):
    run = tmp_path / "run"
    assert_exits_in_one_line(
        data_argv("train-single", workspace() / "data", run)
        + ["--task-lr", "ar=-1"], run,
        "train.task_lr.ar: must be positive and finite, got -1.0")


@pytest.mark.parametrize("entries,task", [
    (["ar=1e-3,ar=2e-3"], "ar"),
    (["ar=1e-3", "ar=2e-3"], "ar"),
    (["oscc=3e-5", "lta=1e-6,oscc=3e-5"], "oscc")])
def test_task_lr_rejects_a_task_named_twice(tmp_path, entries, task):
    # the last rate used to win without a word
    run = tmp_path / "run"
    assert_exits_in_one_line(
        data_argv("train-single", workspace() / "data", run)
        + [arg for entry in entries for arg in ("--task-lr", entry)], run,
        f"--task-lr: repeated task {task}")


def test_task_lr_rejects_unknown_task(tmp_path):
    run = tmp_path / "run"
    assert_exits_in_one_line(
        data_argv("train-single", workspace() / "data", run)
        + ["--task-lr", "xyz=1e-3"], run, "train.task_lr.xyz: unknown task")


def run_without_arm(run: Path) -> Path:
    """A run directory as written before config.json recorded the arm."""
    run.mkdir()
    raw = json.loads((workspace() / "run_single_oscc" / "config.json").read_text())
    del raw["arm"]
    (run / "config.json").write_text(json.dumps(raw))
    return run


def test_invalid_config_exits_with_one_line(tmp_path):
    ws = workspace()
    run = tmp_path / "bad"
    with pytest.raises(SystemExit) as exc:
        main(["train-single", "--data", str(ws / "data"), "--task", "oscc",
              "--run", str(run), "--layer-kind", "tdgc-no-both"]
             + TRAIN_FLAGS)
    assert exc.value.code == (
        "backbone.layer_kind: unknown kind 'tdgc-no-both'; choose from "
        "['gat', 'gcn', 'sage', 'sage-pe', 'sgcn', 'tdgc', 'tdgc-no-gate', "
        "'tdgc-no-sign']")
    assert not run.exists()

    # a run directory whose config.json lacks a field does not load
    old = run_without_arm(tmp_path / "old")
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--run", str(old), "--data", str(ws / "data")])
    assert exc.value.code == f"{old}: config.arm: missing key"
    # a prototypes directory has no config.json and is not a run to score
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--run", str(proto_run()), "--data", str(ws / "data")])
    assert "config.json" in exc.value.code


def data_argv(command: str, data: Path, run: Path) -> list[str]:
    """A valid ``command`` line reading ``data`` and writing ``run``."""
    ws = workspace()
    return {
        "train-single": ["train-single", "--data", str(data), "--task",
                         "oscc", "--run", str(run)] + TRAIN_FLAGS,
        "train-mtl": ["train-mtl", "--data", str(data), "--tasks", "ar,oscc",
                      "--run", str(run)] + TRAIN_FLAGS,
        "build-prototypes": ["build-prototypes", "--data", str(data),
                             "--support-run", str(ws / "run_mtl"),
                             "--run", str(run)],
        "train-novel": ["train-novel", "--data", str(data), "--task", "pnr",
                        "--method", "mtl-ft", "--support-run",
                        str(ws / "run_mtl"), "--run", str(run)] + TRAIN_FLAGS,
        "eval": ["eval", "--run", str(ws / "run_single_oscc"), "--data",
                 str(data), "--out", str(run)],
    }[command]


@pytest.mark.parametrize("command", ["train-single", "train-mtl",
                                     "build-prototypes", "train-novel",
                                     "eval"])
@pytest.mark.parametrize("fault", ["missing", "non-finite", "no-dim"])
def test_commands_exit_in_one_line_on_unreadable_data(tmp_path, command,
                                                      fault):
    data = tmp_path / "data"
    start = f"{data}: "
    if fault == "non-finite":
        shutil.copytree(workspace() / "data", data)
        blob = sorted((data / "val" / "features").glob("*.bin"))[0]
        raw = bytearray(blob.read_bytes())
        raw[:4] = struct.pack("<f", float("nan"))
        blob.write_bytes(bytes(raw))
    elif fault == "no-dim":
        shutil.copytree(workspace() / "data", data)
        sidecar = sorted((data / "val" / "features").glob("*.json"))[0]
        raw = json.loads(sidecar.read_text())
        del raw["dim"]
        sidecar.write_text(json.dumps(raw))
        start = f"{data}: {sidecar}: missing key dim"
    run = tmp_path / "run"
    assert_exits_in_one_line(data_argv(command, data, run), run, start)


@pytest.mark.parametrize("command", ["train-single", "train-mtl",
                                     "build-prototypes", "train-novel",
                                     "eval"])
def test_commands_exit_in_one_line_on_unknown_data_config_key(tmp_path,
                                                              command):
    data = tmp_path / "data"
    shutil.copytree(workspace() / "data", data)
    raw = json.loads((data / "config.json").read_text())
    (data / "config.json").write_text(json.dumps({**raw, "bogus": 1}))
    run = tmp_path / "run"
    assert_exits_in_one_line(data_argv(command, data, run), run,
                             f"{data}: {data / 'config.json'}: "
                             f"unknown key bogus")


@pytest.mark.parametrize("command", ["train-single", "train-mtl",
                                     "build-prototypes", "train-novel",
                                     "eval"])
def test_commands_exit_in_one_line_on_unannotated_video(tmp_path, command):
    data = tmp_path / "data"
    shutil.copytree(workspace() / "data", data)
    path = data / "train" / "annotations" / "oscc.json"
    records = json.loads(path.read_text())
    del records[sorted(records)[0]]
    path.write_text(json.dumps(records))
    run = tmp_path / "run"
    assert_exits_in_one_line(data_argv(command, data, run), run,
                             f"{data}: {path}: no annotations for video ")


def test_train_exits_in_one_line_on_oscc_records_unlike_ar(tmp_path):
    data = tmp_path / "data"
    shutil.copytree(workspace() / "data", data)
    path = data / "train" / "annotations" / "oscc.json"
    records = json.loads(path.read_text())
    video = sorted(records)[0]
    records[video].pop()
    path.write_text(json.dumps(records))
    run = tmp_path / "run"
    assert_exits_in_one_line(data_argv("train-single", data, run), run,
                             f"{data}: {path}: video {video} has ")


@pytest.mark.parametrize("field, task", [
    ("segments_per_video", "ar"), ("num_train_videos", "ar"),
    ("num_val_videos", "ar"), ("lta_steps", "lta")])
def test_training_refuses_corpus_with_empty_field(tmp_path, field, task):
    # written through the API, which does not validate: an empty corpus
    # used to train zero steps, or die part way with a run directory behind
    data = tmp_path / "data"
    save_dataset(data, generate_dataset(replace(SynthConfig(
        num_train_videos=2, num_val_videos=1, segments_per_video=8, dim=12,
        num_verbs=4, num_nouns=3, lta_steps=3, seed=5), **{field: 0})))
    run = tmp_path / "run"
    assert_exits_in_one_line(
        ["train-single", "--data", str(data), "--task", task, "--run",
         str(run)] + TRAIN_FLAGS, run, f"data.{field}: must be >= 1, got 0")


@pytest.mark.parametrize("task, video_key, message", [
    ("ar", "labels.verb", "has a record without labels.verb"),
    ("pnr", "labels", "has a record without labels.keyframe_s")])
def test_train_exits_in_one_line_on_record_without_key(tmp_path, task,
                                                       video_key, message):
    data = tmp_path / "data"
    shutil.copytree(workspace() / "data", data)
    path = data / "train" / "annotations" / f"{task}.json"
    records = json.loads(path.read_text())
    video = min(v for v in records if records[v])
    if video_key == "labels":
        records[video][0]["labels"] = {}
    else:
        del records[video][0]["labels"]["verb"]
    path.write_text(json.dumps(records))
    run = tmp_path / "run"
    assert_exits_in_one_line(data_argv("train-single", data, run), run,
                             f"{data}: {path}: video {video} {message}")


def test_build_prototypes_exits_on_unreadable_support_run(tmp_path):
    ws = workspace()
    old = run_without_arm(tmp_path / "old")
    empty = tmp_path / "empty"
    empty.mkdir()
    for support, message in ((old, "config.arm: missing key"),
                             (empty, "config.json")):
        run = tmp_path / "protos"
        with pytest.raises(SystemExit) as exc:
            main(["build-prototypes", "--data", str(ws / "data"),
                  "--support-run", str(support), "--run", str(run)])
        assert exc.value.code.startswith(f"{support}: ")
        assert message in exc.value.code
        assert not run.exists()


def test_train_novel_exits_on_unreadable_support_run(tmp_path):
    ws = workspace()
    old = run_without_arm(tmp_path / "old")
    run = tmp_path / "run"
    with pytest.raises(SystemExit) as exc:
        main(["train-novel", "--data", str(ws / "data"), "--task", "pnr",
              "--method", "mtl-ft", "--support-run", str(old),
              "--run", str(run)] + TRAIN_FLAGS)
    assert exc.value.code == f"{old}: config.arm: missing key"
    assert not run.exists()


def test_eval_exits_on_model_shape_mismatch(tmp_path):
    ws = workspace()
    run = tmp_path / "run"
    run.mkdir()
    src = ws / "run_single_oscc"
    (run / "config.json").write_bytes((src / "config.json").read_bytes())
    with np.load(src / "model.npz") as npz:
        arrays = {name: npz[name] for name in npz.files}
    arrays["p00000"] = arrays["p00000"][:-1]
    np.savez(run / "model.npz", **arrays)
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--run", str(run), "--data", str(ws / "data")])
    assert exc.value.code.startswith(f"{run}: ")
    assert "param 0 shape mismatch" in exc.value.code


def test_truncated_model_exits_with_one_line(tmp_path):
    ws = workspace()
    run = tmp_path / "run"
    run.mkdir()
    src = ws / "run_single_oscc"
    (run / "config.json").write_bytes((src / "config.json").read_bytes())
    whole = (src / "model.npz").read_bytes()
    assert len(whole) > 2000
    (run / "model.npz").write_bytes(whole[:2000])
    novel = tmp_path / "novel"
    for argv in (["eval", "--run", str(run), "--data", str(ws / "data")],
                 ["train-novel", "--data", str(ws / "data"), "--task", "pnr",
                  "--method", "mtl-ft", "--support-run", str(run),
                  "--run", str(novel)] + TRAIN_FLAGS):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code.startswith(f"{run}: {run / 'model.npz'}: ")
        assert "\n" not in exc.value.code
    assert not novel.exists()


def test_model_with_non_finite_weight_exits_with_one_line(tmp_path):
    """One NaN in the first array of ``model.npz``: every command that
    loads the run names the archive and the parameter in one line."""
    ws = workspace()
    run = tmp_path / "run"
    run.mkdir()
    src = ws / "run_single_oscc"
    (run / "config.json").write_bytes((src / "config.json").read_bytes())
    with np.load(src / "model.npz") as npz:
        arrays = {name: npz[name] for name in npz.files}
    arrays["p00000"].reshape(-1)[0] = np.nan
    np.savez(run / "model.npz", **arrays)
    out = tmp_path / "out"
    for argv in (["eval", "--run", str(run), "--data", str(ws / "data")],
                 ["build-prototypes", "--data", str(ws / "data"),
                  "--support-run", str(run), "--run", str(out)],
                 ["train-novel", "--data", str(ws / "data"), "--task", "pnr",
                  "--method", "mtl-ft", "--support-run", str(run),
                  "--run", str(out)] + TRAIN_FLAGS):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == (f"{run}: {run / 'model.npz'}: param 0 "
                                  f"holds a non-finite value")
    assert not out.exists()
    assert not (run / "metrics.json").exists()


def test_eval_exits_on_corrupted_model_member(tmp_path):
    """A flipped byte inside a member of ``model.npz`` fails that member's
    CRC when it is read; ``eval`` names the archive in one line."""
    ws = workspace()
    run = tmp_path / "run"
    run.mkdir()
    src = ws / "run_single_oscc"
    (run / "config.json").write_bytes((src / "config.json").read_bytes())
    blob = bytearray((src / "model.npz").read_bytes())
    with zipfile.ZipFile(src / "model.npz") as zf:
        info = zf.getinfo("p00000.npy")
    name_len, extra_len = struct.unpack(
        "<HH", blob[info.header_offset + 26:info.header_offset + 30])
    end = info.header_offset + 30 + name_len + extra_len + info.compress_size
    blob[end - 1] ^= 0xFF  # last byte of the first array's data
    (run / "model.npz").write_bytes(bytes(blob))
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--run", str(run), "--data", str(ws / "data")])
    assert exc.value.code.startswith(f"{run}: {run / 'model.npz'}: ")
    assert "CRC" in exc.value.code
    assert "\n" not in exc.value.code
    assert not (run / "metrics.json").exists()


def test_flag_defaults_are_the_config_defaults(tmp_path):
    data = tmp_path / "data"
    assert main(["gen-data", "--out", str(data)]) == 0
    assert asdict(load_dataset(data).config) == asdict(SynthConfig())
    run = tmp_path / "run"
    assert main(["train-single", "--data", str(workspace() / "data"),
                 "--task", "oscc", "--run", str(run)]) == 0
    assert asdict(load_config(run).train) == asdict(TrainConfig())


# ---------------------------------------------------------------------------
# reports and ablations
# ---------------------------------------------------------------------------


def test_report_merges_runs(tmp_path):
    ws = workspace()
    out = tmp_path / "report"
    assert main(["report", "--runs", str(ws / "run_single_oscc"),
                 str(ws / "run_mtl"), "--out", str(out)]) == 0
    payload = metrics_of(out)
    assert set(payload["runs"]) == {"run_single_oscc", "run_mtl"}
    rows = (out / "tables" / "summary.csv").read_text().strip().splitlines()
    assert rows[0] == "run,task,metric,value"
    assert len(rows) > 3


def test_report_leaves_missing_metrics_empty(tmp_path):
    run = tmp_path / "run_flat"
    run.mkdir()
    (run / "metrics.json").write_text(json.dumps(
        {"arm": "single", "metrics": {"pnr": {"loc_err_s": None}}}))
    out = tmp_path / "report"
    assert main(["report", "--runs", str(run), "--out", str(out)]) == 0
    rows = (out / "tables" / "summary.csv").read_text().strip().splitlines()
    assert rows[1:] == ["run_flat,pnr,loc_err_s,"]
    assert metrics_of(out)["runs"]["run_flat"]["metrics"]["pnr"] == {
        "loc_err_s": None}


def test_report_exits_in_one_line_without_readable_metrics(tmp_path):
    ws = workspace()
    run = tmp_path / "run_bare"
    run.mkdir()
    out = tmp_path / "report"
    argv = ["report", "--runs", str(ws / "run_mtl"), str(run),
            "--out", str(out)]
    assert_exits_in_one_line(argv, out, f"{run}: ")
    (run / "metrics.json").write_text("{truncated")
    assert_exits_in_one_line(argv, out, f"{run}: ")


def test_ablate_order_probe(tmp_path):
    out = tmp_path / "abl"
    assert main(["ablate", "order", "--out", str(out),
                 "--seeds", "0", "--kinds", "tdgc,gcn",
                 "--windows", "40", "--epochs", "3", "--noise", "0.1"]) == 0
    payload = metrics_of(out)
    assert set(payload) == {"arm", "separation"}
    assert set(payload["separation"]) == {"tdgc", "gcn", "tdgc-no-sign",
                                          "tdgc-no-gate"}
    for entry in payload["separation"].values():
        assert 0.0 <= entry["mean"] <= 100.0
        assert set(entry["per_seed"]) == {"0"} or set(entry["per_seed"]) == {0}
    assert [p.name for p in (out / "tables").iterdir()] == [
        "order_separation.csv"]


def test_ablate_order_writes_one_row_per_arm_under_its_layer_kind(tmp_path):
    # the tdgc variants used to sit in a second table as full, no_sign and
    # no_gate; each row's name is now what --layer-kind takes
    out = tmp_path / "abl"
    assert main(["ablate", "order", "--out", str(out),
                 "--kinds", "gcn", "--seeds", "0", "--windows", "40",
                 "--epochs", "2"]) == 0
    lines = (out / "tables" / "order_separation.csv").read_text().splitlines()
    assert lines[0] == "layer_kind,mean_val_acc,per_seed"
    names = [line.split(",")[0] for line in lines[1:]]
    assert names == ["gcn", "tdgc", "tdgc-no-sign", "tdgc-no-gate"]
    assert set(metrics_of(out)["separation"]) == set(names)
    cfg = load_config(workspace() / "run_single_oscc")
    for name in names:
        validate_config(replace(cfg, backbone=replace(cfg.backbone,
                                                      layer_kind=name)))


def test_ablate_order_trains_each_arm_and_seed_once(tmp_path, monkeypatch):
    # the six default kinds and the two tdgc variants over two seeds: 16
    # runs, each (arm, seed) once
    from tgk import ablation
    from tgk.layers import LAYER_KINDS, TDGC_VARIANTS

    calls = []
    real = ablation.train_order_probe

    def counted(layer_kind, seed, *args, **kwargs):
        calls.append((layer_kind, seed, tuple(sorted(kwargs.items()))))
        return real(layer_kind, seed, *args, **kwargs)

    monkeypatch.setattr(ablation, "train_order_probe", counted)
    out = tmp_path / "abl"
    assert main(["ablate", "order", "--out", str(out),
                 "--seeds", "0,1", "--windows", "20", "--epochs", "1"]) == 0
    arms = [*LAYER_KINDS, *TDGC_VARIANTS]
    assert sorted(calls) == sorted((arm, seed, ()) for arm in arms
                                   for seed in (0, 1))
    assert len(calls) == 16
    assert set(metrics_of(out)["separation"]) == set(arms)


def test_ablate_grid(tmp_path):
    out = tmp_path / "grid"
    assert main(["ablate", "grid", "--out", str(out),
                 "--seeds", "0", "--kinds", "tdgc", "--poolings", "mean",
                 "--thresholds", "2.0", "--train-videos", "4",
                 "--val-videos", "2", "--segments", "16",
                 "--epochs", "2", "--noise", "0.1"]) == 0
    payload = metrics_of(out)
    records = payload["records"]
    assert len(records) == 1
    assert records[0]["layer_kind"] == "tdgc"
    assert records[0]["pooling"] == "mean"
    assert records[0]["threshold_s"] == 2.0
    assert "map_avg" in records[0]
    assert (out / "tables" / "ablation_grid.csv").is_file()


def test_ablate_grid_defaults_to_one_window_and_mean_pooling(tmp_path):
    argv = ["ablate", "grid", "--seeds", "0", "--kinds", "tdgc",
            "--train-videos", "4", "--val-videos", "2", "--segments", "16",
            "--epochs", "2"]
    assert main(argv + ["--out", str(tmp_path / "given"), "--poolings",
                        "mean", "--thresholds", "2.0"]) == 0
    assert main(argv + ["--out", str(tmp_path / "default")]) == 0
    for name in ("metrics.json", "tables/ablation_grid.csv"):
        assert ((tmp_path / "default" / name).read_bytes()
                == (tmp_path / "given" / name).read_bytes())


def test_ablate_config_json_holds_what_each_mode_ran(tmp_path, monkeypatch):
    # config.json is written before anything trains, from the very configs
    # the runs receive; every grid cell rebuilt from it is a valid run
    from tgk import cli

    ran = {}

    def recorded(name, result):
        def run(*args, **kwargs):
            assert (out / name / "config.json").is_file()
            ran[name] = (args, kwargs)
            return result
        return run

    monkeypatch.setattr(cli, "run_order_separation", recorded("order", {}))
    monkeypatch.setattr(cli, "run_ablation_grid", recorded("grid", []))
    out = tmp_path
    assert main(["ablate", "order", "--out", str(out / "order"), "--seeds",
                 "2,0", "--kinds", "gcn,tdgc", "--windows", "40",
                 "--noise", "0.2", "--epochs", "3"]) == 0
    assert main(["ablate", "grid", "--out", str(out / "grid"), "--seeds",
                 "3,1", "--kinds", "tdgc,sage", "--poolings", "mean,max",
                 "--thresholds", "2.0,4", "--train-videos", "4",
                 "--val-videos", "2", "--segments", "16", "--noise", "0.2",
                 "--epochs", "2"]) == 0

    probe = OrderProbeConfig(num_windows=40, noise=0.2, epochs=3,
                             warmup_epochs=2)
    arms = ["gcn", "tdgc", "tdgc-no-sign", "tdgc-no-gate"]
    assert ran["order"] == ((arms, [2, 0], probe), {})
    assert json.loads((out / "order" / "config.json").read_text()) == {
        "probe": asdict(probe), "arms": arms, "seeds": [2, 0]}

    data = SynthConfig(num_train_videos=4, num_val_videos=2,
                       segments_per_video=16, noise=0.2, seed=3)
    train = TrainConfig(epochs=2, warmup_epochs=1, seed=3)
    axes = {"layer_kinds": ["tdgc", "sage"], "poolings": ["mean", "max"],
            "thresholds": [2.0, 4.0], "seeds": [3, 1]}
    assert ran["grid"] == ((data, train), axes)
    saved = json.loads((out / "grid" / "config.json").read_text())
    assert saved == {"data": asdict(data), "train": asdict(train), **axes}
    for kind, pooling, thr, seed in itertools.product(*axes.values()):
        validate_config(ExperimentConfig(
            data=SynthConfig(**{**saved["data"], "seed": seed}),
            train=TrainConfig(**{**saved["train"], "seed": seed}),
            backbone=backbone_layout(["mq"], saved["data"]["dim"],
                                     BackboneConfig(layer_kind=kind,
                                                    pooling=pooling,
                                                    threshold_s=thr)),
            tasks=("mq",), arm="single"))


# the small run each ablate mode takes in the refusal tests
ABLATE_FLAGS = {"order": ["--seeds", "0", "--windows", "40", "--epochs", "2"],
                "grid": ["--seeds", "0", "--epochs", "2", "--train-videos",
                         "4", "--val-videos", "2", "--segments", "16"]}


@pytest.mark.parametrize("mode,flag,value", [
    ("order", "--kinds", "tdgc,foo"), ("grid", "--kinds", "foo"),
    ("grid", "--poolings", "mean,avg")])
def test_ablate_rejects_unknown_kind_or_pooling(tmp_path, capsys, mode, flag,
                                                value):
    # the probe checks its kinds itself, the grid through validate_config
    cause = {("order", "--kinds"): "unknown entry",
             ("grid", "--kinds"): "backbone.layer_kind: unknown kind",
             ("grid", "--poolings"): "backbone.pooling: unknown pooling"}
    out = tmp_path / "abl"
    assert_exits_in_one_line(
        ["ablate", mode, "--out", str(out), *ABLATE_FLAGS[mode], flag,
         value], out, f"{flag}: {cause[mode, flag]} {value.split(',')[-1]!r}")
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("mode,flag,value,message", [
    ("order", "--seeds", "0,x", "--seeds: malformed entry 'x'"),
    ("grid", "--seeds", "1.5", "--seeds: malformed entry '1.5'"),
    ("order", "--seeds", "0,-1", "--seeds: must be non-negative, got -1"),
    # a repeated seed trained twice; grid mode counted it twice in num_seeds
    ("order", "--seeds", "0,1,0", "--seeds: repeated entry 0"),
    ("grid", "--seeds", "0,0", "--seeds: repeated entry 0"),
    ("grid", "--thresholds", "2.0,two", "--thresholds: malformed entry 'two'"),
    ("grid", "--thresholds", "0", "--thresholds: backbone.threshold_s: must "
                                  "be positive and finite, got 0.0"),
    ("grid", "--thresholds", "2.0,-1", "--thresholds: backbone.threshold_s: "
                                       "must be positive and finite, got "
                                       "-1.0"),
    ("grid", "--seeds", "0,-1", "--seeds: data.seed: must be >= 0, got -1")])
def test_ablate_rejects_malformed_seeds_or_thresholds(tmp_path, capsys, mode,
                                                      flag, value, message):
    out = tmp_path / "abl"
    assert_exits_in_one_line(
        ["ablate", mode, "--out", str(out), *ABLATE_FLAGS[mode], flag,
         value], out, message)
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv,message", [
    # grid mode trained and recorded 4 identical cells
    (["ablate", "grid", "--kinds", "tdgc,tdgc", "--poolings", "mean,mean"],
     "--kinds: repeated entry tdgc"),
    (["ablate", "grid", "--kinds", "tdgc", "--poolings", "mean,mean"],
     "--poolings: repeated entry mean"),
    # order mode dropped the repeat without a word
    (["ablate", "order", "--kinds", "gcn,gcn"],
     "--kinds: repeated entry gcn"),
    # entries are compared as parsed values
    (["ablate", "grid", "--kinds", "tdgc", "--thresholds", "2.0,2.00"],
     "--thresholds: repeated entry 2.00"),
    # ended in a ValueError traceback from build_prototypes
    (["build-prototypes", "--tasks", "oscc,oscc"],
     "--tasks: repeated entry oscc")])
def test_a_repeated_list_entry_exits_in_one_line(tmp_path, capsys, argv,
                                                 message):
    ws = workspace()
    out = tmp_path / "out"
    if argv[0] == "ablate":
        argv = argv + ["--out", str(out), *ABLATE_FLAGS[argv[1]]]
    else:
        argv = argv + ["--data", str(ws / "data"), "--support-run",
                       str(ws / "run_mtl"), "--run", str(out)]
    assert_exits_in_one_line(argv, out, message)
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("mode,flags,message", [
    ("order", ["--noise", "nan"],
     "--noise: must be non-negative and finite, got nan"),
    ("order", ["--noise", "-1"],
     "--noise: must be non-negative and finite, got -1.0"),
    ("grid", ["--noise", "inf"],
     "--noise: data.noise: must be non-negative and finite, got inf"),
    ("grid", ["--thresholds", "2.0,inf"], "--thresholds: "
     "backbone.threshold_s: must be positive and finite, got inf")])
def test_ablate_rejects_non_finite_noise_or_threshold(tmp_path, capsys, mode,
                                                       flags, message):
    # a nan noise ended in a probe traceback, a negative one in numpy's
    # own error; grid mode read --noise unchecked, and inf thresholds ran
    out = tmp_path / "abl"
    assert_exits_in_one_line(
        ["ablate", mode, "--out", str(out), *ABLATE_FLAGS[mode], "--kinds",
         "tdgc"] + flags, out, message)
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("mode,flag,value", [
    ("order", "--poolings", "avg"), ("order", "--poolings", "max"),
    ("order", "--thresholds", "inf"), ("order", "--thresholds", "9.0"),
    ("order", "--train-videos", "4"), ("order", "--val-videos", "2"),
    ("order", "--segments", "16"), ("grid", "--windows", "40")])
def test_ablate_refuses_the_other_modes_flags(tmp_path, capsys, mode, flag,
                                              value):
    # one --mode command took all twelve flags: the probe ignored the
    # corpus sizes and the grid ignored --windows without a word
    out = tmp_path / "abl"
    with pytest.raises(SystemExit) as exc:
        main(["ablate", mode, "--out", str(out), *ABLATE_FLAGS[mode], flag,
              value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("mode,flags,message", [
    ("order", ["--epochs", "0"], "--epochs: must be at least 1, got 0"),
    ("grid", ["--epochs", "0"], "--epochs: train.epochs: must be >= 1, "
                                "got 0"),
    ("grid", ["--train-videos", "0"],
     "--train-videos: data.num_train_videos: must be >= 1, got 0"),
    ("grid", ["--val-videos", "0"],
     "--val-videos: data.num_val_videos: must be >= 1, got 0"),
    ("grid", ["--segments", "0"],
     "--segments: data.segments_per_video: must be >= 1, got 0")])
def test_ablate_rejects_empty_runs(tmp_path, capsys, mode, flags, message):
    # each used to write metrics.json and tables/ from untrained or empty
    # runs, or end in a numpy traceback
    out = tmp_path / "abl"
    assert_exits_in_one_line(
        ["ablate", mode, "--out", str(out), *ABLATE_FLAGS[mode], "--kinds",
         "tdgc"] + flags, out, message)
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("windows", ["-3", "0", "1"])
def test_ablate_rejects_windows_the_split_leaves_empty(tmp_path, capsys,
                                                        windows):
    # 0.8 of fewer than two windows leaves the training or the validation
    # split empty
    out = tmp_path / "abl"
    assert_exits_in_one_line(
        ["ablate", "order", "--out", str(out), "--seeds", "0",
         "--kinds", "tdgc", "--epochs", "2", "--windows", windows], out,
        f"--windows: the 0.8 train split must leave a window on each side, "
        f"got {windows}")
    assert capsys.readouterr().out == ""


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------


def test_missing_subcommand_exits():
    with pytest.raises(SystemExit):
        main([])


def test_unknown_novel_method_exits(tmp_path):
    ws = workspace()
    with pytest.raises(SystemExit):
        main(["train-novel", "--data", str(ws / "data"), "--task", "pnr",
              "--method", "distill", "--run", str(tmp_path / "z")])


# ---------------------------------------------------------------------------
# the run config records the backbone every arm trains
# ---------------------------------------------------------------------------

NON_DEFAULT = ["--layer-kind", "gcn", "--pooling", "max", "--threshold", "3.0",
               "--layers-per-stage", "1"]
NON_DEFAULT_FIELDS = {"layer_kind": "gcn", "pooling": "max",
                      "threshold_s": 3.0, "layers_per_stage": 1}


def recorded_backbones(run: Path) -> tuple[dict, dict]:
    """The backbone ``config.json`` records and the backbone of the model
    ``load_run`` rebuilds from it."""
    cfg = load_config(run)
    model, _, _ = load_run(run, cfg)
    return asdict(cfg.backbone), asdict(model.backbone_cfg)


def assert_eval_reproduces_training(run: Path, data: str) -> None:
    """``tgk eval`` rebuilds the run from its directory alone and scores it
    as training did; no second record of the model is written."""
    out = run.with_name(run.name + "_eval")
    assert main(["eval", "--run", str(run), "--data", data,
                 "--out", str(out)]) == 0
    payload = metrics_of(out)
    assert payload["metrics"] == metrics_of(run)["metrics"], run.name
    assert payload["arm"] == json.loads(
        (run / "config.json").read_text())["arm"]
    assert not list(run.rglob("model_meta.json")), run.name


def test_every_arm_records_the_backbone_it_trains(tmp_path):
    data = str(workspace() / "data")
    fresh = {
        "single": (["train-single", "--task", "mq"], 4),
        "mtl": (["train-mtl", "--tasks", "ar,oscc"], 1),
        "novel_single": (["train-novel", "--task", "mq",
                          "--method", "single"], 4),
        "translation": (["train-novel", "--task", "mq",
                         "--method", "translation",
                         "--support-tasks", "ar,oscc"], 4),
    }
    for name, (cmd, stages) in fresh.items():
        run = tmp_path / name
        assert main(cmd + ["--data", data, "--run", str(run)]
                    + NON_DEFAULT + TRAIN_FLAGS) == 0
        config, meta = recorded_backbones(run)
        assert config == meta, name
        assert {k: config[k] for k in NON_DEFAULT_FIELDS} == NON_DEFAULT_FIELDS
        assert (config["d_in"], config["d_model"]) == (12, 12)
        assert config["num_stages"] == stages, name
        assert_eval_reproduces_training(run, data)
    # token providers share every setting but their own stage count
    run = tmp_path / "translation"
    cfg = load_config(run)
    _, _, tm = load_run(run, cfg)
    config = asdict(cfg.backbone)
    assert sorted(tm.support_models) == ["ar", "oscc"]
    for t in ("ar", "oscc"):
        assert [p.name for p in (run / "support" / t).iterdir()] == [
            "model.npz"]
        support = asdict(tm.support_models[t].backbone_cfg)
        assert support["num_stages"] == 1
        assert {**support, "num_stages": config["num_stages"]} == config

    # warm-start arms inherit the non-default support run's backbone
    support_run = tmp_path / "mtl"
    banks = tmp_path / "banks"
    assert main(["build-prototypes", "--data", data, "--support-run",
                 str(support_run), "--run", str(banks)]) == 0
    support_backbone, _ = recorded_backbones(support_run)
    warm = {"egopack": ["--banks", str(banks)], "mtl-ft": [],
            "mtl-ht": ["--threshold", "3"]}  # an agreeing flag is accepted
    for method, extra in warm.items():
        run = tmp_path / method
        assert main(["train-novel", "--data", data, "--task", "mq",
                     "--method", method, "--support-run", str(support_run),
                     "--run", str(run)] + extra + TRAIN_FLAGS) == 0
        config, meta = recorded_backbones(run)
        assert config == meta, method
        assert config == {**support_backbone, "num_stages": 4}, method
        assert_eval_reproduces_training(run, data)

    run = tmp_path / "conflict"
    with pytest.raises(SystemExit) as exc:
        main(["train-novel", "--data", data, "--task", "mq",
              "--method", "mtl-ft", "--support-run", str(support_run),
              "--run", str(run), "--layer-kind", "tdgc"] + TRAIN_FLAGS)
    assert "backbone.layer_kind" in str(exc.value.code)
    assert not run.exists()


def test_a_tdgc_variant_is_a_layer_kind(tmp_path):
    # tdgc without its gate trains, is recorded and reloads by its name
    data = str(workspace() / "data")
    run = tmp_path / "no_gate"
    assert main(["train-single", "--data", data, "--task", "oscc",
                 "--run", str(run), "--layer-kind", "tdgc-no-gate"]
                + TRAIN_FLAGS) == 0
    config, meta = recorded_backbones(run)
    assert config == meta
    assert config["layer_kind"] == "tdgc-no-gate"
    assert_eval_reproduces_training(run, data)
    model, _, _ = load_run(run, load_config(run))
    layers = [lp for block in model.backbone.stages for lp in block]
    assert len(layers) == 2
    for lp in layers:
        assert isinstance(lp, TdgcParams)
        assert (lp.disable_sign, lp.disable_gate) == (False, True)


@pytest.mark.parametrize("edit, message", [
    # the sign and gate switches left the backbone section
    (lambda raw: raw["backbone"].update(disable_sign=False),
     "backbone.disable_sign: unknown key"),
    (lambda raw: raw.update(tasks=["oscc", "oscc"]),
     "tasks: task 'oscc' listed twice"),
    (lambda raw: raw.update(arm="translation", support_tasks=["ar", "ar"]),
     "support_tasks: task 'ar' listed twice"),
])
def test_eval_refuses_a_config_no_run_writes(tmp_path, edit, message):
    ws = workspace()
    run = tmp_path / "old"
    run.mkdir()
    raw = json.loads((ws / "run_single_oscc" / "config.json").read_text())
    edit(raw)
    (run / "config.json").write_text(json.dumps(raw))
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--run", str(run), "--data", str(ws / "data")])
    assert exc.value.code == f"{run}: {message}"


@pytest.mark.parametrize("argv, message", [
    (["train-mtl", "--tasks", "oscc,oscc"], "tasks: task 'oscc' listed twice"),
    (["train-novel", "--task", "mq", "--method", "translation",
      "--support-tasks", "ar,ar"], "support_tasks: task 'ar' listed twice"),
])
def test_a_task_listed_twice_exits_in_one_line(tmp_path, argv, message):
    # both ran: one oscc branch recorded as ["oscc", "oscc"], one ar token
    # model recorded as ["ar", "ar"]
    run = tmp_path / "run"
    assert_exits_in_one_line(
        argv + ["--data", str(workspace() / "data"), "--run", str(run)]
        + TRAIN_FLAGS, run, message)
