"""Machine-checked map from design concepts to their implementations.

Docs that point at code rot silently; this module keeps the pointers
honest. ``DESIGN_MAP`` names every load-bearing concept in the package and
the callable (or class) that implements it, ``check_design_map`` verifies
each entry resolves to a real attribute of the named module, and the
``architecture.md`` table is required to list exactly the same concept ids,
each with its implementation (``doc_parity``), so prose and code cannot
drift apart unnoticed.

Run as a script it prints one line per problem and exits nonzero if any
entry dangles, which makes it usable as a CI step:

    python -m tgk.crossref [--doc docs/architecture.md]
"""

from __future__ import annotations

import argparse
import importlib
import re
from dataclasses import dataclass
from pathlib import Path

__all__ = ["DESIGN_MAP", "MapEntry", "check_design_map", "doc_parity", "main"]


@dataclass(frozen=True)
class MapEntry:
    concept: str
    target: str  # "module:attr" with module relative to this package
    summary: str


DESIGN_MAP: tuple[MapEntry, ...] = (
    MapEntry("reverse-mode-tape",
             "autodiff:backward",
             "records ops in execution order, sweeps them in reverse, "
             "accumulates into leaves"),
    MapEntry("gradient-blocking",
             "autodiff:Tensor.detach",
             "cuts the tape so support branches cannot update the backbone"),
    MapEntry("temporal-window-rule",
             "graph:build_graph",
             "edges between same-video nodes closer than the stage window, "
             "built once per video and window by the loop's VideoCache"),
    MapEntry("scatter-plan",
             "autodiff:ScatterPlan",
             "each segment's rows in a padded table, added left to right "
             "onto +0.0: the bytes of np.add.at, compiled once per ids"),
    MapEntry("topology-plans",
             "graph:Topology",
             "a graph's src, dst and closed-neighbourhood plans, compiled "
             "once per video or batch topology the loop's VideoCache keeps"),
    MapEntry("stage-window-doubling",
             "graph:threshold_exponent",
             "stage l connects within threshold * 2**(l-1) seconds"),
    MapEntry("ceil-halving-coarsening",
             "graph:subsample_plan",
             "every stage keeps the even-index survivors per video"),
    MapEntry("neighborhood-pooling",
             "hierarchy:pool_closed_neighborhood",
             "mean/max over each survivor's closed neighborhood only, "
             "differentiable through segment ops over the survivors' plans"),
    MapEntry("signed-neighbor-direction",
             "layers:tdgc_forward",
             "past and future neighbor messages enter with opposite signs"),
    MapEntry("gated-neighbor-magnitude",
             "layers:TdgcParams",
             "per-channel ReLU gate of the absolute time offset"),
    MapEntry("neighbor-projection-mean",
             "layers:tdgc_forward",
             "mean of rectified projected neighbors, sign- and gate-"
             "modulated"),
    MapEntry("fused-tdgc-aggregate",
             "autodiff:tdgc_aggregate",
             "gather, gate, sign and segment mean as one record whose "
             "backward replays the composed chain's bytes"),
    MapEntry("root-projection",
             "layers:tdgc_forward",
             "the node's own affine path, kept outside the aggregation"),
    MapEntry("time-encoding-baseline",
             "layers:sinusoidal_pe",
             "sinusoidal encodings of raw seconds for the PE baseline"),
    MapEntry("backbone-pyramid",
             "hierarchy:backbone_forward",
             "stacked stages: layers, pool, halve, double the window; "
             "coarser stages' edges per video from the VideoCache"),
    MapEntry("task-neck",
             "tasks:MlpParams",
             "the two-layer MLP, (dim, dim, dim), one per task"),
    MapEntry("interval-alignment",
             "tasks:interval_nodes",
             "nodes strictly inside each interval from one (intervals x "
             "nodes) comparison, nearest-node fallback when empty"),
    MapEntry("recognition-head",
             "tasks:MlpParams",
             "the two-layer MLP, (dim, dim, classes), over aligned features"),
    MapEntry("keyframe-scorer",
             "tasks:scorer_forward",
             "linear per-node score trained against the node nearest the "
             "keyframe"),
    MapEntry("detection-head",
             "tasks:mq_forward",
             "per-node sigmoid class scores plus softplus offsets scaled "
             "by the stage"),
    MapEntry("detection-decode",
             "tasks:mq_decode",
             "offsets around node positions, clamped to the video extent"),
    MapEntry("detection-targets",
             "tasks:mq_targets",
             "inclusive interval membership, shortest-duration ambiguity "
             "resolution, pre-scale offsets"),
    MapEntry("forecasting-head",
             "tasks:lta_forward",
             "context tiled onto fully connected future placeholders, "
             "refined by two directional layers"),
    MapEntry("forecasting-candidates",
             "tasks:lta_candidates",
             "argmax sequence plus seeded softmax samples"),
    MapEntry("focal-detection-loss",
             "tasks:focal_loss",
             "down-weights easy negatives, normalized by positive count"),
    MapEntry("interval-overlap-loss",
             "tasks:diou_loss",
             "1 - IoU plus normalized center gap on matched spans"),
    MapEntry("prototype-bank",
             "egopack:build_prototypes",
             "frozen per-(verb, noun) mean of task-projected aligned rows"),
    MapEntry("prototype-knn-match",
             "egopack:knn_match",
             "exact nearest prototypes per node in Euclidean distance, ties "
             "to the lower index: a GEMM screen within a proven error "
             "margin, exact distances on the candidates"),
    MapEntry("prototype-interaction",
             "egopack:interaction_forward",
             "mixes node features with the mean of their activated "
             "prototypes"),
    MapEntry("cross-task-fusion",
             "egopack:fuse_features",
             "arithmetic mean of the novel branch and interaction branches"),
    MapEntry("translation-attention-mask",
             "translation:build_mask",
             "row-stage window, inclusive boundary, forced diagonal"),
    MapEntry("pre-norm-task-translation",
             "translation:translation_forward",
             "task-embedded tokens through masked pre-norm attention, all "
             "heads in one attention per layer; frozen support tokens and "
             "masks once per video from the loop's VideoCache"),
    MapEntry("soft-nms",
             "metrics:soft_nms",
             "Gaussian overlap decay instead of hard suppression, from "
             "one IoU matrix per group"),
    MapEntry("map-at-iou",
             "metrics:map_at_iou",
             "pooled per-class ranking, greedy matching of every "
             "threshold on one IoU matrix per (class, video), envelope AP"),
    MapEntry("edit-distance",
             "metrics:edit_distance",
             "best candidate Levenshtein over target length"),
    MapEntry("order-probe",
             "synth:generate_order_windows",
             "mirror-symmetric two-event windows labeled by order"),
    MapEntry("reversible-verb-pairs",
             "synth:_World",
             "paired state-changing verbs share a base pattern and differ "
             "only in phase order"),
    MapEntry("scripted-transitions",
             "synth:_make_video",
             "cyclic-successor verbs and persistent nouns make the future "
             "predictable"),
    MapEntry("phase-separation-guard",
             "training:AnnotationView",
             "PermissionError on any annotation read outside the phase's "
             "allowed tasks"),
    MapEntry("per-group-optimizers",
             "training:_adam_batches",
             "one Adam per parameter group with per-task learning rates, in "
             "the optimisation core the train loop and the order probe "
             "share"),
    MapEntry("warmup-cosine-schedule",
             "optim:lr_at",
             "linear warmup then cosine decay to zero"),
    MapEntry("finite-difference-check",
             "optim:finite_diff_check",
             "central differences against tape gradients"),
)


def _resolve(target: str):
    mod_name, _, attr_path = target.partition(":")
    module = importlib.import_module(f"{__package__}.{mod_name}")
    obj = module
    for part in attr_path.split("."):
        obj = getattr(obj, part)
    return obj


def check_design_map(entries=DESIGN_MAP) -> list[str]:
    """Resolve every entry; returns one message per dangling pointer."""
    problems = []
    seen = set()
    for e in entries:
        if e.concept in seen:
            problems.append(f"duplicate concept id: {e.concept}")
        seen.add(e.concept)
        try:
            _resolve(e.target)
        except (ImportError, AttributeError) as exc:
            problems.append(f"{e.concept}: {e.target} does not resolve ({exc})")
    return problems


_DOC_ROW = re.compile(
    r"^\|\s*`([a-z0-9-]+)`\s*\|(?:\s*`?([^`|]*?)`?\s*\|)?")


def doc_parity(doc_path: str | Path, entries=DESIGN_MAP) -> list[str]:
    """Compare the architecture doc's concept table against the map.

    The doc must carry one table row per concept (`concept-id` in the first
    column, its target as `tgk.<module>.<attr>` in the second); extra or
    missing rows, and rows naming another implementation, are reported.
    """
    text = Path(doc_path).read_text()
    doc_rows = {m.group(1): m.group(2) for line in text.splitlines()
                if (m := _DOC_ROW.match(line.strip()))}
    code_rows = {e.concept: f"{__package__}.{e.target.replace(':', '.')}"
                 for e in entries}
    problems = [f"doc missing concept: {c}"
                for c in sorted(code_rows.keys() - doc_rows.keys())]
    problems += [f"doc lists unknown concept: {c}"
                 for c in sorted(doc_rows.keys() - code_rows.keys())]
    problems += [f"doc names {doc_rows[c]} for {c}, the map {code_rows[c]}"
                 for c in sorted(code_rows.keys() & doc_rows.keys())
                 if doc_rows[c] != code_rows[c]]
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--doc", default=None,
                        help="architecture doc to check for table parity")
    args = parser.parse_args(argv)
    problems = check_design_map()
    if args.doc:
        problems += doc_parity(args.doc)
    for p in problems:
        print(p)
    if not problems:
        print(f"design map ok: {len(DESIGN_MAP)} concepts resolve")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
