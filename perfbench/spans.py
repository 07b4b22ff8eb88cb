"""In-memory span tracing around calls into tgk's modules.

``Tracer.install`` replaces the module attributes through which tgk calls
its own layers with wrappers that record one span per call: its name,
start, end and parent span. Most functions are imported by name, so each
wrapper goes on the binding that is actually called (``tgk.training.
mq_targets``, not ``tgk.tasks.mq_targets``). ``Tracer.restore`` puts every
original back. Nothing under ``src/`` changes.

Besides spans, the wrappers take three counts where the work happens:

- a tape census: each call of ``backward`` reads ``tape.records`` and
  counts records per primitive, keyed by the backward closure's qualname;
- repeat ratios: ``mq_targets`` and ``rebuild_edges`` hash their inputs
  and count calls whose inputs this repetition has already seen;
- the arm and evaluation context of every ``backbone_forward`` call,
  taken from the parent spans.
"""

from __future__ import annotations

import hashlib
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

from tgk import ablation, egopack, hierarchy, metrics, optim, synth, training
from tgk.layers import LAYER_KINDS

# (owner, attribute, span name): every call site the tracer wraps.
BINDINGS = (
    (training, "build_batch_graph", "training.build_batch_graph"),
    (training, "build_graph", "graph.build_graph"),
    (ablation, "build_graph", "graph.build_graph"),
    (hierarchy, "rebuild_edges", "graph.rebuild_edges"),
    (hierarchy, "subsample_plan", "graph.subsample_plan"),
    (hierarchy, "pool_closed_neighborhood",
     "hierarchy.pool_closed_neighborhood"),
    (training, "mq_targets", "tasks.mq_targets"),
    (training, "backbone_forward", "hierarchy.backbone_forward"),
    (ablation, "backbone_forward", "hierarchy.backbone_forward"),
    (training, "neck_forward", "tasks.neck_forward"),
    (training, "mq_forward", "tasks.mq_forward"),
    (training, "align_video_intervals", "tasks.align_video_intervals"),
    (training, "task_loss", "training.task_loss"),
    (training, "focal_loss", "tasks.focal_loss"),
    (training, "diou_loss", "tasks.diou_loss"),
    (training, "backward", "autodiff.backward"),
    (ablation, "backward", "autodiff.backward"),
    (optim.Adam, "step", "optim.Adam.step"),
    (training, "evaluate", "training.evaluate"),
    (training, "mq_decode", "tasks.mq_decode"),
    (training, "soft_nms", "metrics.soft_nms"),
    (training, "map_at_iou", "metrics.map_at_iou"),
    (metrics, "iou_matrix", "metrics.iou_matrix"),
    (training, "recall_at_k", "metrics.recall_at_k"),
    (egopack, "knn_match", "egopack.knn_match"),
    (training, "interaction_forward", "egopack.interaction_forward"),
    (training, "build_prototypes", "egopack.build_prototypes"),
    (training, "build_prototype_banks", "training.build_prototype_banks"),
    (training, "translation_forward", "translation.translation_forward"),
    (synth, "generate_dataset", "synth.generate_dataset"),
    (ablation, "generate_order_windows", "synth.generate_order_windows"),
    (ablation, "train_order_probe", "ablation.train_order_probe"),
)


def _where(owner) -> str:
    if isinstance(owner, type):
        return f"{owner.__module__}.{owner.__qualname__}"
    return owner.__name__


def original_bindings() -> dict:
    """Current object behind every traced binding, keyed by location."""
    out = {f"{_where(owner)}:{attr}": getattr(owner, attr)
           for owner, attr, _ in BINDINGS}
    out.update({f"tgk.layers.LAYER_KINDS:{kind}": spec
                for kind, spec in LAYER_KINDS.items()})
    return out


def primitive_of(backward_fn) -> str:
    """Tape primitive that emitted a record: ``gather_rows.<locals>.back``
    belongs to ``gather_rows``."""
    return backward_fn.__qualname__.split(".<locals>")[0]


def _probe_span_name(args, kwargs) -> str:
    kind = args[0] if args else kwargs["layer_kind"]
    return f"ablation.train_order_probe.{kind}"


def _digest(*parts) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for p in parts:
        h.update(np.ascontiguousarray(p).tobytes() if isinstance(p, np.ndarray)
                 else repr(p).encode())
        h.update(b"|")
    return h.digest()


class Tracer:
    """Spans and counts for one repetition of a workload."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._stack = [-1]
        self._saved: list = []
        self.backward_calls = 0
        self.tape_records = 0
        self.census: Counter = Counter()
        self.repeats: dict[str, list[int]] = {}
        self._seen: dict[str, set] = {}

    # -- spans ------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, name, hook=None):
        tracer = self

        def traced(*args, **kwargs):
            if hook is not None:
                hook(args, kwargs)
            idx = tracer._open(name if isinstance(name, str)
                               else name(args, kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)

        return traced

    # -- counts taken inside the wrappers ---------------------------------

    def _count_repeat(self, key: str, digest: bytes) -> None:
        seen = self._seen.setdefault(key, set())
        calls_repeats = self.repeats.setdefault(key, [0, 0])
        calls_repeats[0] += 1
        if digest in seen:
            calls_repeats[1] += 1
        seen.add(digest)

    def _mq_targets_hook(self, args, kwargs) -> None:
        self._count_repeat("tasks.mq_targets", _digest(*args, *kwargs.values()))

    def _rebuild_edges_hook(self, args, kwargs) -> None:
        g = args[0]
        rule = args[1] if len(args) > 1 else kwargs.get("rule")
        self._count_repeat("graph.rebuild_edges", _digest(
            g.positions_s, g.video_boundaries, g.stage, rule))

    def _backward_hook(self, args, kwargs) -> None:
        tape = args[0] if args else kwargs["tape"]
        self.backward_calls += 1
        self.tape_records += len(tape.records)
        self.census.update(primitive_of(r.backward_fn) for r in tape.records)

    # -- install / restore ------------------------------------------------

    def install(self) -> None:
        hooks = {"tasks.mq_targets": self._mq_targets_hook,
                 "graph.rebuild_edges": self._rebuild_edges_hook,
                 "autodiff.backward": self._backward_hook}
        for owner, attr, name in BINDINGS:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            hook = hooks.get(name)
            if name == "ablation.train_order_probe":
                name = _probe_span_name
            setattr(owner, attr, self._wrap(fn, name, hook))
        for kind, spec in list(LAYER_KINDS.items()):
            self._saved.append((LAYER_KINDS, kind, spec))
            LAYER_KINDS[kind] = replace(
                spec, forward=self._wrap(spec.forward, f"layers.{kind}.forward"))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            if owner is LAYER_KINDS:
                LAYER_KINDS[attr] = original
            else:
                setattr(owner, attr, original)
        self._saved.clear()

    # -- aggregation ------------------------------------------------------

    def summary(self) -> dict:
        """Per span name [calls, inclusive ms, self ms], plus how many
        ``backbone_forward`` calls ran under each benchmark operation and
        how many under ``evaluate``."""
        n = len(self.names)
        dur = (np.asarray(self.ends) - np.asarray(self.starts)) * 1e3
        parents = np.asarray(self.parents, dtype=np.intp)
        child = np.zeros(n)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        spans: dict[str, list[float]] = {}
        for name, d, c in zip(self.names, dur, child):
            row = spans.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += d
            row[2] += d - c
        # Parents precede their children, so one forward pass carries the
        # enclosing operation and evaluation flag down to every span.
        op_of = [""] * n
        in_eval = [False] * n
        by_op: Counter = Counter()
        in_evaluate = 0
        for i, (name, p) in enumerate(zip(self.names, self.parents)):
            if p >= 0:
                op_of[i] = op_of[p]
                in_eval[i] = in_eval[p] or self.names[p] == "training.evaluate"
            if name.startswith(("train.", "eval.", "prep.")):
                op_of[i] = name
            if name == "hierarchy.backbone_forward":
                by_op[op_of[i]] += 1
                in_evaluate += in_eval[i]
        return {"spans": spans, "backbone_by_op": by_op,
                "backbone_in_evaluate": in_evaluate}
