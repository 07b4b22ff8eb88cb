"""Quick-size self-test of the benchmark.

    python3 -m pytest -q perfbench

Runs every workload at a few-second size, untraced and traced, and checks
that every metric BENCHMARK.json declares is emitted with a valid name,
that the traced scores match the untraced ones bit for bit, and that the
tracer puts every binding it wrapped back.
"""

import json
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import run  # noqa: E402

run.pin_threads()
workloads = run.import_workloads()

import spans  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
    DECLARED = json.load(f)

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _names(section):
    return {m["name"] for m in DECLARED[section]}


def _assert_valid(metrics, reps):
    for name, (value, unit) in metrics.items():
        assert NAME.fullmatch(name) and len(name) <= 64, name
        assert isinstance(value, (int, float)), (name, value)
        assert unit
    assert all(r.failed == 0 and not r.errors for r in reps), \
        [e for r in reps for e in r.errors]


def test_workloads_declared():
    assert {w["name"] for w in DECLARED["workloads"]} == set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_end_to_end_metrics_emitted(name):
    wl = workloads.WORKLOADS[name]
    metrics, reps = run.measure(wl, seed=0, seconds=0, sizes=wl.quick)
    assert set(metrics) == _names("end_to_end")
    _assert_valid(metrics, reps)
    # Quality may be 0 at this size; times and memory never are.
    assert all(value > 0 for name, (value, _) in metrics.items()
               if name != "quality"), metrics


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_emits_layers_and_restores_bindings(name):
    wl = workloads.WORKLOADS[name]
    before = spans.original_bindings()
    metrics, reps = run.measure_traced(wl, seed=0, seconds=0, sizes=wl.quick)
    assert set(metrics) == _names("per_layer")
    _assert_valid(metrics, reps)
    after = spans.original_bindings()
    assert after.keys() == before.keys()
    for key, original in before.items():
        assert after[key] is original, key
