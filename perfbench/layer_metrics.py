"""Per-layer metrics of one traced repetition.

Every metric is emitted on every workload; a layer a workload never
calls reads 0. Counts and times are totals over one repetition of the
workload unless the name says "per". Which end-to-end metric each layer
should move, and on which workload, is in perfbench/README.md.
"""

from __future__ import annotations

LAYER_KINDS = ("tdgc", "gcn", "gat", "sage", "sage-pe", "sgcn")

# Spans reported with calls and inclusive ms.
TIMED = (
    # graph construction, pooling and detection targets
    "training.build_batch_graph", "graph.build_graph", "graph.rebuild_edges",
    "graph.subsample_plan", "hierarchy.pool_closed_neighborhood",
    "tasks.mq_targets",
    # one training step: backbone, heads, loss, backward, Adam
    "hierarchy.backbone_forward",
    *(f"layers.{k}.forward" for k in LAYER_KINDS),
    "tasks.neck_forward", "tasks.mq_forward", "tasks.align_video_intervals",
    "training.task_loss", "tasks.focal_loss", "tasks.diou_loss",
    "autodiff.backward", "optim.Adam.step",
    # evaluation
    "training.evaluate", "tasks.mq_decode", "metrics.soft_nms",
    "metrics.map_at_iou", "metrics.iou_matrix", "metrics.recall_at_k",
    # transfer
    "egopack.knn_match", "egopack.interaction_forward",
    "egopack.build_prototypes", "training.build_prototype_banks",
    "translation.translation_forward",
    # input generation
    "synth.generate_dataset", "synth.generate_order_windows",
)

# Spans that contain other spans also get self ms; for a leaf it equals ms.
WITH_SELF = (
    "hierarchy.backbone_forward", "training.task_loss", "training.evaluate",
    "metrics.map_at_iou", "metrics.recall_at_k",
    "egopack.interaction_forward", "training.build_prototype_banks",
)

# Tape primitives the workloads record, keyed by the name of the function
# that records them; any other primitive counts under "other".
PRIMITIVES = (
    "add", "sub", "mul", "div", "power", "exp", "log", "sqrt", "relu",
    "leaky_relu", "sigmoid", "softplus", "clip", "minimum", "maximum",
    "matmul", "transpose", "tsum", "tmean", "gather_rows", "take_cols",
    "take_per_row", "segment_sum", "segment_mean", "concat_rows",
)

TRAIN_ARMS = ("mtl", "single", "mtl_ft", "egopack", "translation")
EVAL_ARMS = ("single", "mtl_ft", "egopack", "translation")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def compute(tracer, traced, plain) -> dict:
    """name -> (value, unit) from a traced repetition and its untraced twin.

    Per-arm step and video times come from the untraced twin, so tracing
    overhead does not inflate them.
    """
    summary = tracer.summary()
    spans = summary["spans"]
    out: dict[str, tuple[float, str]] = {}
    for name in TIMED:
        calls, ms, _ = spans.get(name, (0, 0.0, 0.0))
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.ms"] = (ms, "ms")
    for name in WITH_SELF:
        out[f"{name}.self_ms"] = (spans.get(name, (0, 0.0, 0.0))[2], "ms")
    for kind in LAYER_KINDS:
        name = f"ablation.train_order_probe.{kind}"
        out[f"{name}.ms"] = (spans.get(name, (0, 0.0, 0.0))[1], "ms")

    for name in ("tasks.mq_targets", "graph.rebuild_edges"):
        calls, repeats = tracer.repeats.get(name, (0, 0))
        out[f"{name}.repeat_ratio"] = (_ratio(repeats, calls), "ratio")
    out["hierarchy.backbone_forward.calls_per_eval_video"] = (
        _ratio(summary["backbone_in_evaluate"], traced.eval_videos),
        "calls/video")
    out["hierarchy.backbone_forward.calls_per_step"] = (
        _ratio(summary["backbone_by_op"]["train.translation"],
               traced.op_steps.get("train.translation", 0)), "calls/step")

    steps = tracer.backward_calls
    out["autodiff.tape_records_per_step"] = (
        _ratio(tracer.tape_records, steps), "records/step")
    for prim in PRIMITIVES:
        out[f"autodiff.records.{prim}"] = (
            _ratio(tracer.census[prim], steps), "records/step")
    other = sum(n for p, n in tracer.census.items() if p not in PRIMITIVES)
    out["autodiff.records.other"] = (_ratio(other, steps), "records/step")

    for arm in TRAIN_ARMS:
        op = f"train.{arm}"
        out[f"arm.{arm}.train_ms_per_step"] = (
            _ratio(1e3 * plain.op_s.get(op, 0.0), plain.op_steps.get(op, 0)),
            "ms/step")
    for arm in EVAL_ARMS:
        op = f"eval.{arm}"
        out[f"arm.{arm}.eval_ms_per_video"] = (
            _ratio(1e3 * plain.op_s.get(op, 0.0), plain.op_videos.get(op, 0)),
            "ms/video")
    out["trace.overhead_s"] = (traced.wall_s - plain.wall_s, "s")
    return out
