"""The benchmark's tracer wraps tgk call sites by module attribute; a
refactor that drops one of those bindings must fail here, in the
project's own suite, not only in the benchmark's self-test."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_resolves():
    spans = load_spans()
    assert spans.BINDINGS
    missing = [f"{spans._where(owner)}:{attr}"
               for owner, attr, _ in spans.BINDINGS if not hasattr(owner, attr)]
    assert missing == []
