"""Run one benchmark workload in this process and print its metrics.

    python3 perfbench/run.py --workload mq_pyramid --seed 0 --seconds 20 --trace 0

Workloads: mq_pyramid, order_probe, transfer (see perfbench/README.md).
The run repeats the workload until ``--seconds`` have passed and it has
done the workload's minimum number of repetitions, then prints one line
per metric (name, value, unit) and, as the last line, a JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics, measured with no tracing.
``--trace 1`` runs each repetition twice, untraced then traced, checks
that both give bit-identical scores, and reports the per-layer metrics
of the traced runs plus the tracing overhead.

The exit code is 0 only when every operation succeeded and every output
check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# One BLAS thread: the matrices are tiny and Python overhead dominates, so
# a second thread buys nothing and only adds contention noise.
THREADS = "1"
THREAD_VARS = ("TGK_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_SAMPLES = 5


def pin_threads() -> None:
    """Must run before numpy or tgk is imported."""
    for var in THREAD_VARS:
        os.environ[var] = THREADS


def import_workloads():
    sys.path[:0] = [SRC, HERE]
    import tgk
    import workloads
    if os.path.dirname(os.path.abspath(tgk.__file__)) != os.path.join(SRC, "tgk"):
        raise ImportError(f"tgk imported from {tgk.__file__}, not from {SRC}")
    return workloads


def git_commit(root: str) -> str:
    """Commit of the checkout, read from .git without running git."""
    head_path = os.path.join(root, ".git", "HEAD")
    try:
        with open(head_path) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(root, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_facts() -> dict:
    import numpy as np
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = deps["blas"]
        blas_desc = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas_desc = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "tgk_threads": os.environ["TGK_THREADS"],
        "numpy": np.__version__,
        "blas": blas_desc,
        "python": platform.python_version(),
        "commit": git_commit(ROOT),
    }


def setup_seconds(workload: str, seed: int) -> float:
    """Median set-up time over fresh processes: imports, input generation."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"),
             workload, str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _repetitions(seed: int, seconds: float, min_reps: int, run_one):
    """Call ``run_one(rep_seed)`` until time is up and ``min_reps`` calls
    are done; stop at the first repetition that is not clean."""
    from workloads import sub_seed
    t0 = time.perf_counter()
    out = []
    r = 0
    while True:
        result = run_one(sub_seed(seed, r))
        out.append(result)
        r += 1
        if not result["clean"]:
            break
        if r >= min_reps and time.perf_counter() - t0 >= seconds:
            break
    return out


def measure(wl, seed: int, seconds: float, sizes) -> tuple[dict, list]:
    """End-to-end metrics with tracing off."""
    from workloads import run_rep
    setup_s = setup_seconds(wl.name, seed)
    results = _repetitions(seed, seconds, wl.min_reps,
                           lambda s: _plain(run_rep(wl, s, sizes)))
    reps = [r["rep"] for r in results]
    done = [r for r in reps if not r.errors and r.failed == 0] or reps
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(r.wall_s for r in done), "s"),
        "train_ms_per_step": (
            1e3 * _median_op_total(done, "train.") / max(done[0].steps, 1), "ms"),
        "eval_ms_per_video": (
            1e3 * _median_op_total(done, "eval.") / max(done[0].eval_videos, 1),
            "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "quality": (statistics.fmean(r.quality for r in reps[:wl.min_reps]),
                    "score"),
    }
    return metrics, reps


def _median_op_total(reps, prefix: str) -> float:
    """Sum over the operations named ``prefix*`` of each one's median
    duration across repetitions. Every repetition runs the same operations
    on inputs of the same size, and a per-operation median rejects the
    slow bursts a shared machine puts into single repetitions."""
    ops = [k for k in reps[0].op_s if k.startswith(prefix)]
    return sum(statistics.median(r.op_s[k] for r in reps) for k in ops)


def _plain(rep) -> dict:
    return {"rep": rep, "clean": not rep.errors and rep.failed == 0}


def measure_traced(wl, seed: int, seconds: float, sizes) -> tuple[dict, list]:
    """Per-layer metrics: each repetition untraced, then traced."""
    from workloads import run_rep
    from spans import Tracer
    import layer_metrics

    def pair(rep_seed):
        plain = run_rep(wl, rep_seed, sizes)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_rep(wl, rep_seed, sizes, tracer=tracer)
        finally:
            tracer.restore()
        identical = _bits(plain.scores) == _bits(traced.scores)
        if not identical:
            traced.errors.append("traced scores differ from untraced scores")
        return {"rep": traced, "plain": plain, "tracer": tracer,
                "clean": identical and all(
                    not r.errors and r.failed == 0 for r in (plain, traced))}

    results = _repetitions(seed, seconds, 1, pair)
    per_rep = [layer_metrics.compute(r["tracer"], r["rep"], r["plain"])
               for r in results]
    metrics = {name: (statistics.median(m[name][0] for m in per_rep),
                      per_rep[0][name][1])
               for name in per_rep[0]}
    reps = [x for r in results for x in (r["plain"], r["rep"])]
    return metrics, reps


def _bits(scores: dict) -> dict:
    return {k: float(v).hex() for k, v in scores.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    pin_threads()
    workloads = import_workloads()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]

    facts = machine_facts()
    print("facts " + json.dumps(facts, sort_keys=True))
    runner = measure_traced if args.trace else measure
    metrics, reps = runner(wl, args.seed, args.seconds, wl.sizes)

    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    errors = [e for r in reps for e in r.errors]
    finite = all(math.isfinite(v) for v, _ in metrics.values())
    correct = failed == 0 and not errors and finite
    for e in errors:
        print(f"error {e}", file=sys.stderr)
    print(f"workload {wl.name} seed {args.seed} repetitions "
          f"{len(reps) // (2 if args.trace else 1)} trace {args.trace}")
    for label, value in reps[0].scores.items():
        print(f"score {label} {value:.6g} (first repetition)")
    for i, r in enumerate(reps):
        print("repetition " + json.dumps(
            {"index": i, "wall_s": r.wall_s, "quality": r.quality,
             "op_s": r.op_s}))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"fail_ratio {failed / attempted if attempted else 0.0:.6g} "
          f"({failed}/{attempted} operations)")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value if math.isfinite(value) else None,
                           "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
