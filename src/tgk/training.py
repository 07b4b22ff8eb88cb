"""Training phases and baseline arms over the synthetic corpus.

Phase one trains a shared backbone with hard parameter sharing: every
task keeps its own neck and head, losses are summed unweighted, and each
task group can run at its own learning rate (separate optimizer instances
over one tape). Phase two freezes the phase-one model into prototype
banks and trains a novel task that queries them through interaction
layers, with gradients into the backbone blocked along the support
branches.

Baseline arms reuse the same machinery:
  - single:      fresh backbone, novel task only;
  - mtl-ft:      the phase-one backbone warm-started for the novel task,
                 with no interaction branches, fully fine-tuned;
  - mtl-ht:      same with the backbone frozen (head tuning);
  - egopack:     the warm-started model plus interaction branches;
  - translation: frozen single-task support models emit tokens, a masked
                 encoder translates them for the novel head.

Annotation access goes through ``AnnotationView`` which enforces the
phase contract: phase two may only read the novel task's annotations.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace

import numpy as np

from .autodiff import (
    GradientTape, Tensor, add, backward, concat_rows, cross_entropy_rows,
    gather_rows, mul, segment_mean,
)
from .egopack import (
    InteractionParams, PrototypeBank, build_prototypes, fuse_features,
    interaction_forward,
)
from .graph import TemporalGraph, VideoCache, build_graph, stage_scale
from .hierarchy import BackboneConfig, BackboneParams, StageOutput, backbone_forward
from .metrics import (
    edit_distance, localization_error, map_at_iou, recall_at_k, soft_nms,
    top1_accuracy,
)
from .optim import Adam, lr_at
from .synth import (
    SynthConfig, SynthDataset, VideoSample, ar_annotations, lta_annotations,
    lta_train_instances,
    mq_annotations, oscc_annotations, pnr_annotations,
)
from .tasks import (
    LtaParams, MlpParams, MqParams, ScorerParams, align_video_intervals,
    bce_with_logits, diou_loss, focal_loss, interval_nodes, lta_candidates,
    lta_forward, mlp_forward, mq_decode, mq_forward, mq_targets,
    neck_forward, scorer_forward,
)
from .translation import TranslationParams, translation_forward

__all__ = [
    "TrainConfig", "WorldInfo", "AnnotationView", "TaskBranch",
    "MultiTaskModel", "stage_count_for", "backbone_layout",
    "build_batch_graph", "run_single", "run_mtl",
    "build_prototype_banks", "run_novel", "run_translation", "evaluate",
]

DENSE_STAGE = 0  # stage index consumed by per-segment tasks


@dataclass(frozen=True)
class TrainConfig:
    """Optimization settings shared by all arms."""

    epochs: int = 15
    warmup_epochs: int = 5
    base_lr: float = 1e-4
    task_lr: dict = field(default_factory=lambda: {"oscc": 1e-5, "pnr": 1e-5})
    batch_videos: int = 8
    seed: int = 0
    knn_k: int = 8
    mq_min_score: float = 0.05
    num_candidates: int = 5

    def lr_for(self, task: str) -> float:
        return float(self.task_lr.get(task, self.base_lr))


@dataclass(frozen=True)
class WorldInfo:
    """Label-space facts the models need from the dataset."""

    dim: int
    num_verbs: int
    num_nouns: int
    lta_steps: int

    @classmethod
    def from_config(cls, cfg: SynthConfig) -> "WorldInfo":
        return cls(dim=cfg.dim, num_verbs=cfg.num_verbs,
                   num_nouns=cfg.num_nouns, lta_steps=cfg.lta_steps)

    @classmethod
    def from_dataset(cls, ds: SynthDataset) -> "WorldInfo":
        return cls.from_config(ds.config)

    @property
    def mq_classes(self) -> int:
        return self.num_verbs


class AnnotationView:
    """Gatekeeper for annotation reads.

    Each training phase constructs a view naming the tasks it is allowed
    to touch; reading any other task's annotations raises PermissionError.
    This is what keeps phase-two training honest about never seeing
    support-task supervision.
    """

    def __init__(self, allowed_tasks, lta_steps: int):
        self.allowed = frozenset(allowed_tasks)
        self.lta_steps = lta_steps

    def annotations(self, video: VideoSample, task: str):
        base = "lta" if task == "lta_train" else task
        if base not in self.allowed:
            raise PermissionError(
                f"annotations for task {base!r} are not available in this phase")
        if task == "ar":
            return ar_annotations(video)
        if task == "oscc":
            return oscc_annotations(video)
        if task == "pnr":
            return pnr_annotations(video)
        if task == "mq":
            return mq_annotations(video)
        if task == "lta":
            return lta_annotations(video, self.lta_steps)
        if task == "lta_train":
            return lta_train_instances(video, self.lta_steps)
        raise ValueError(f"unknown task {task!r}")


def build_batch_graph(videos: list[VideoSample], threshold_s: float,
                      cache: VideoCache | None = None) -> TemporalGraph:
    """Concatenate videos into one stage-1 graph; ``build_graph`` wires
    each video's edges once per cache."""
    cache = VideoCache() if cache is None else cache
    feats = np.concatenate([v.features for v in videos], axis=0)
    pos = np.concatenate([v.positions_s for v in videos])
    bounds = np.cumsum([0] + [len(v.positions_s) for v in videos])
    return cache.graph(feats, pos, bounds, 1, threshold_s, lambda video:
                       build_graph(video.features, video.positions_s,
                                   threshold_s=threshold_s))


# ---------------------------------------------------------------------------
# per-task branches
# ---------------------------------------------------------------------------

@dataclass
class TaskBranch:
    """Neck plus head weights for one task.

    ``extra`` holds weights a transfer arm trains with the branch (its
    interaction stacks or translation encoder); they come last in
    ``params()``, so they share the branch's optimizer group.
    """

    task: str
    neck: MlpParams
    heads: dict
    extra: list[Tensor] = field(default_factory=list)

    @classmethod
    def init(cls, rng: np.random.Generator, task: str, world: WorldInfo
             ) -> "TaskBranch":
        dim = world.dim
        neck = MlpParams.init(rng, dim, dim, dim)
        if task == "ar":
            heads = {"verb": MlpParams.init(rng, dim, dim, world.num_verbs),
                     "noun": MlpParams.init(rng, dim, dim, world.num_nouns)}
        elif task == "oscc":
            heads = {"cls": MlpParams.init(rng, dim, dim, 2)}
        elif task == "pnr":
            heads = {"scorer": ScorerParams.init(rng, dim)}
        elif task == "mq":
            heads = {"mq": MqParams.init(rng, dim, world.mq_classes)}
        elif task == "lta":
            heads = {"lta": LtaParams.init(rng, dim, world.num_verbs,
                                           world.num_nouns, world.lta_steps)}
        else:
            raise ValueError(f"unknown task {task!r}")
        return cls(task, neck, heads)

    def params(self) -> list[Tensor]:
        out = self.neck.params()
        for head in self.heads.values():
            out.extend(head.params())
        return out + self.extra


def needs_pyramid(tasks) -> bool:
    return "mq" in tasks


def stage_count_for(tasks) -> int:
    return 4 if needs_pyramid(tasks) else 1


def backbone_layout(tasks, dim: int,
                    backbone_cfg: BackboneConfig | None = None
                    ) -> BackboneConfig:
    """The backbone a model for ``tasks`` on ``dim``-wide features is built
    with: ``backbone_cfg``'s settings (the defaults when None), with both
    widths set to ``dim`` and the stage count the task set needs."""
    return replace(backbone_cfg or BackboneConfig(), d_in=dim, d_model=dim,
                   num_stages=stage_count_for(tasks))


@dataclass
class MultiTaskModel:
    """Shared backbone plus one branch per task."""

    backbone_cfg: BackboneConfig
    backbone: BackboneParams
    branches: dict[str, TaskBranch]
    world: WorldInfo

    @classmethod
    def init(cls, rng: np.random.Generator, tasks, world: WorldInfo,
             backbone_cfg: BackboneConfig) -> "MultiTaskModel":
        backbone = BackboneParams.init(rng, backbone_cfg)
        branches = {t: TaskBranch.init(rng, t, world) for t in sorted(tasks)}
        return cls(backbone_cfg, backbone, branches, world)

    @property
    def tasks(self) -> list[str]:
        return sorted(self.branches)

    def params(self) -> list[Tensor]:
        """Every weight in the order ``model.npz`` stores it: the backbone,
        then each branch by task name."""
        return self.backbone.params() + [
            p for t in self.tasks for p in self.branches[t].params()]

    def forward_backbone(self, videos: list[VideoSample],
                         cache: VideoCache | None = None
                         ) -> list[StageOutput]:
        """The backbone over ``videos``' stage-1 graph, built at
        ``backbone_cfg.threshold_s``; ``cache`` holds every stage's
        per-video edges across the calls of one loop."""
        graph = build_batch_graph(videos, self.backbone_cfg.threshold_s,
                                  cache)
        return backbone_forward(self.backbone, self.backbone_cfg, graph,
                                cache)


def _freeze(*owners) -> None:
    """Stop gradients into every weight in each owner's ``params()``."""
    for owner in owners:
        for t in owner.params():
            t.requires_grad = False


# ---------------------------------------------------------------------------
# per-task losses on one batch
# ---------------------------------------------------------------------------

_CLASS_HEADS = {"ar": ("verb", "noun"), "oscc": ("cls",)}


def _first_min(values: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Per run of equal ``ids`` (ascending), the index into ``values`` of
    the run's first smallest value."""
    order = np.lexsort((values, ids))
    return order[np.flatnonzero(np.diff(ids, prepend=-1))]


def _covered_nodes(positions_s: np.ndarray, ivals: np.ndarray):
    """``interval_nodes`` of the intervals that cover a node: (nodes, ids)."""
    nodes, ids, fallback = interval_nodes(positions_s, ivals)
    covered = ~fallback[ids]
    return nodes[covered], ids[covered]


def _batch_targets(task: str, g: TemporalGraph, videos: list[VideoSample],
                   view: AnnotationView, world: WorldInfo,
                   cache: VideoCache) -> list:
    """Per batch video, its supervision for ``task`` at ``g``'s stage,
    computed once per cache, with node indices local to the video:

      - ar, oscc: ``interval_nodes``' (nodes, interval ids), then labels;
      - pnr: the (nodes, 0/1 targets) of every interval that covers a
        node, 1 at its first node nearest the keyframe;
      - mq: ``mq_targets`` with offsets in seconds;
      - lta: (anchors, logit rows, verbs, nouns) of the instances with a
        future.

    The loop that owns the cache holds every video it caches, so
    ``id(video)`` names one video.
    """
    def compute(video, pos):
        if task == "lta":
            kept = [inst for inst in view.annotations(video, "lta_train")
                    if len(inst[1])]
            anchors = np.array([anchor for anchor, _, _ in kept]).reshape(-1, 2)
            rows = [m * world.lta_steps + j
                    for m, (_, verbs, _) in enumerate(kept)
                    for j in range(len(verbs))]
            verbs, nouns = (np.array([y for inst in kept for y in inst[col]],
                                     dtype=np.intp) for col in (1, 2))
            return anchors, np.array(rows, dtype=np.intp), verbs, nouns
        ivals, *labels = view.annotations(video, task)
        if task == "mq":
            cls_t, off_t, pos_mask = mq_targets(pos, g.stage, ivals, labels[0],
                                                world.mq_classes)
            return cls_t, off_t * stage_scale(g.stage), pos_mask
        if task == "pnr":
            nodes, ids = _covered_nodes(pos, ivals)
            targets = np.zeros(len(nodes))
            targets[_first_min(np.abs(pos[nodes] - labels[0][ids]), ids)] = 1.0
            return nodes, targets
        return (*interval_nodes(pos, ivals)[:2], *labels)

    per_video = np.split(g.positions_s, g.video_boundaries[1:-1])
    return [cache.get((task, id(video), g.stage, pos.tobytes()),
                      lambda: compute(video, pos))
            for video, pos in zip(videos, per_video)]


def _interval_class_loss(necked: Tensor, graph: TemporalGraph, parts: list,
                         task: str, heads: dict) -> Tensor:
    """CE over aligned intervals; covers recognition and state change. One
    gather and one segment mean pool every interval of the batch."""
    counts = [len(part[2]) for part in parts]
    nodes = np.concatenate([part[0] + lo for part, lo
                            in zip(parts, graph.video_boundaries)])
    ids = np.concatenate([part[1] + lo for part, lo
                          in zip(parts, np.cumsum([0] + counts))])
    pooled = segment_mean(gather_rows(necked, nodes), ids, sum(counts))
    logits = [mlp_forward(heads[h], pooled) for h in _CLASS_HEADS[task]]
    terms = [cross_entropy_rows(z, np.concatenate([part[2 + i] for part in parts]))
             for i, z in enumerate(logits)]
    return terms[0] if len(terms) == 1 else add(*terms)


def _pnr_loss(necked: Tensor, graph: TemporalGraph, parts: list,
              heads: dict) -> Tensor:
    nodes = np.concatenate([n + lo for (n, _), lo
                            in zip(parts, graph.video_boundaries)])
    if not len(nodes):
        return Tensor(0.0)
    logits = scorer_forward(heads["scorer"], gather_rows(necked, nodes))
    return bce_with_logits(logits, np.concatenate([t for _, t in parts]))


def _mq_loss(stage_features: list[Tensor], stages: list[StageOutput],
             videos: list[VideoSample], view: AnnotationView,
             heads: dict, world: WorldInfo, cache: VideoCache) -> Tensor:
    """Focal classification over every node of every stage plus
    distance-IoU regression over positive nodes.

    A stage's rows are its videos' rows in batch order, so the head reads
    each stage whole; the targets come per (video, stage) from ``cache``.
    """
    scores, offsets, targets = [], [], []
    for necked, stage_out in zip(stage_features, stages):
        g = stage_out.graph
        stage_scores, stage_offsets = mq_forward(heads["mq"], necked, g.stage)
        scores.append(stage_scores)
        offsets.append(stage_offsets)
        targets.extend(_batch_targets("mq", g, videos, view, world, cache))
    cls_t, off_t, pos_mask = (np.concatenate(parts) for parts in zip(*targets))
    positives = np.nonzero(pos_mask)[0]
    loss = focal_loss(concat_rows(scores), cls_t,
                      normalizer=float(max(len(positives), 1)))
    if len(positives):
        # [t - left, t + right] in seconds around each positive node's time
        sign = np.array([[-1.0, 1.0]])
        t = np.concatenate([s.graph.positions_s for s in stages])[positives, None]
        pred = add(Tensor(t), mul(gather_rows(concat_rows(offsets), positives),
                                  Tensor(sign)))
        loss = add(loss, diou_loss(pred, t + off_t[positives] * sign))
    return loss


def _lta_loss(necked: Tensor, graph: TemporalGraph, parts: list,
              heads: dict) -> Tensor:
    terms = []
    for vi, (anchors, rows, verbs, nouns) in enumerate(parts):
        if not len(anchors):
            continue
        contexts, _ = align_video_intervals(necked, graph, vi, anchors)
        verb_logits, noun_logits = lta_forward(heads["lta"], contexts)
        terms.append(add(cross_entropy_rows(gather_rows(verb_logits, rows), verbs),
                         cross_entropy_rows(gather_rows(noun_logits, rows), nouns)))
    if not terms:
        return Tensor(0.0)
    total = terms[0]
    for t in terms[1:]:
        total = add(total, t)
    return mul(total, Tensor(1.0 / len(terms)))


def task_loss(branch: TaskBranch, stage_features: list[Tensor],
              stages: list[StageOutput], videos: list[VideoSample],
              view: AnnotationView, world: WorldInfo,
              cache: VideoCache | None = None) -> Tensor:
    """Loss of one task on one batch, given its necked features per stage.

    Dense tasks consume only the full-resolution stage; the detection
    task consumes every stage. Every task's targets come per (video,
    stage) from ``cache``.
    """
    cache = VideoCache() if cache is None else cache
    task = branch.task
    if task == "mq":
        return _mq_loss(stage_features, stages, videos, view, branch.heads,
                        world, cache)
    graph = stages[DENSE_STAGE].graph
    parts = _batch_targets(task, graph, videos, view, world, cache)
    necked = stage_features[DENSE_STAGE]
    if task in _CLASS_HEADS:
        return _interval_class_loss(necked, graph, parts, task, branch.heads)
    if task == "pnr":
        return _pnr_loss(necked, graph, parts, branch.heads)
    if task == "lta":
        return _lta_loss(necked, graph, parts, branch.heads)
    raise ValueError(f"unknown task {task!r}")


# ---------------------------------------------------------------------------
# phase one: single-task and multi-task training
# ---------------------------------------------------------------------------

def _stage_features(model: MultiTaskModel, task: str,
                    stages: list[StageOutput], videos: list[VideoSample],
                    arm: NovelModel | TranslationModel | None,
                    cache: VideoCache) -> list[Tensor]:
    """Per stage the task reads (only mq reads past the dense stage), the
    features its head reads: the transfer ``arm``'s ``stage_features``
    (per-video work kept in ``cache``), otherwise the task's own neck."""
    stages = stages[:stage_count_for([task])]
    if arm is not None:
        return arm.stage_features(stages, videos, cache)
    return [neck_forward(model.branches[task].neck, s.features)
            for s in stages]


def _require_finite(loss: Tensor, name: str, epoch: int) -> Tensor:
    """``loss``, or ``FloatingPointError`` naming ``name`` and ``epoch``."""
    if not np.isfinite(loss.data).all():
        raise FloatingPointError(
            f"{name} loss is {float(loss.data)} at epoch {epoch}")
    return loss


def _adam_batches(owners, n: int, rng: np.random.Generator, batch: int,
                  epochs: int, warmup_epochs: int):
    """Optimisation core of every trainer: one Adam per ``(params, base
    lr)`` owner over its parameters that require grad, so a frozen owner
    gets none. Each epoch sets every group's ``lr_at`` rate, shuffles the
    ``n`` items with ``rng`` and yields ``(epoch, batch indices, leaves)``
    per batch; the caller runs ``backward`` into the leaves, and once its
    loop body returns every group steps. A raise in the body leaves the
    generator unresumed, so no weight moves. Each Adam binds its leaves
    to views of its flat buffer, so a leaf listed twice, in one group or
    in two, raises ``ValueError`` before any Adam is built.
    """
    owned = [([p for p in params if p.requires_grad], lr)
             for params, lr in owners]
    leaves = [p for ps, _ in owned for p in ps]
    if len({id(p) for p in leaves}) < len(leaves):
        raise ValueError("a parameter is listed twice among the optimizer "
                         "groups")
    groups = [(lr, Adam(ps, lr)) for ps, lr in owned if ps]
    for epoch in range(epochs):
        for base, opt in groups:
            opt.set_lr(lr_at(epoch, base, warmup_epochs, epochs))
        order = rng.permutation(n)
        for lo in range(0, n, batch):
            yield epoch, order[lo:lo + batch], leaves
            for _, opt in groups:
                opt.step()
                opt.zero_grad()


def _train_loop(model: MultiTaskModel, videos: list[VideoSample],
                cfg: TrainConfig,
                arm: NovelModel | TranslationModel | None = None) -> None:
    """Training loop of every arm: each batch runs the backbone once and
    sums the task losses, each read from the features ``_stage_features``
    picks for ``arm``, and the backbone and every branch are their own
    ``_adam_batches`` owner at their own learning rate. Annotations are
    read through a view of the model's own tasks. Per-video edges and
    targets are cached for the loop's length. A non-finite task loss
    raises ``FloatingPointError`` before any weight moves.
    """
    view = AnnotationView(model.tasks, model.world.lta_steps)
    cache = VideoCache()
    owners = [(model.backbone.params(), cfg.base_lr)] + [
        (branch.params(), cfg.lr_for(name))
        for name, branch in model.branches.items()]
    for epoch, sel, leaves in _adam_batches(
            owners, len(videos), np.random.default_rng(cfg.seed),
            cfg.batch_videos, cfg.epochs, cfg.warmup_epochs):
        batch = [videos[i] for i in sel]
        with GradientTape() as tape:
            stages = model.forward_backbone(batch, cache)
            loss = None
            for task, branch in model.branches.items():
                feats = _stage_features(model, task, stages, batch, arm, cache)
                term = _require_finite(
                    task_loss(branch, feats, stages, batch, view, model.world,
                              cache), task, epoch)
                loss = term if loss is None else add(loss, term)
        backward(tape, loss, leaves=leaves)


def run_single(task: str, ds: SynthDataset, cfg: TrainConfig,
               backbone_cfg: BackboneConfig | None = None) -> MultiTaskModel:
    """Fresh model trained on one task alone."""
    return run_mtl([task], ds, cfg, backbone_cfg)


def run_mtl(tasks, ds: SynthDataset, cfg: TrainConfig,
            backbone_cfg: BackboneConfig | None = None) -> MultiTaskModel:
    """Hard parameter sharing over several tasks, losses summed unweighted."""
    tasks = sorted(tasks)
    world = WorldInfo.from_dataset(ds)
    rng = np.random.default_rng(cfg.seed)
    model = MultiTaskModel.init(rng, tasks, world,
                                backbone_layout(tasks, world.dim, backbone_cfg))
    _train_loop(model, ds.train, cfg)
    return model


# ---------------------------------------------------------------------------
# phase two: prototype banks and novel-task training
# ---------------------------------------------------------------------------

def build_prototype_banks(model: MultiTaskModel, ds: SynthDataset,
                          support_tasks=None) -> dict[str, PrototypeBank]:
    """Summarize each support task as (verb, noun)-keyed prototypes.

    Every annotated recognition interval contributes one row: node
    features are aligned over the interval first, then projected through
    the support task's neck, then averaged per label pair. Banks come out
    frozen.
    """
    support_tasks = sorted(support_tasks or model.tasks)
    view = AnnotationView(set(support_tasks) | {"ar"},
                          model.world.lta_steps)
    per_task_rows: dict[str, list[np.ndarray]] = {t: [] for t in support_tasks}
    keys: list[np.ndarray] = []
    for video in ds.train:
        stages = model.forward_backbone([video])
        feats = stages[DENSE_STAGE].features
        ivals, verbs, nouns = view.annotations(video, "ar")
        aligned, _ = align_video_intervals(feats, stages[DENSE_STAGE].graph,
                                           0, ivals)
        keys.append(np.stack([verbs, nouns], axis=1))
        for t in support_tasks:
            projected = neck_forward(model.branches[t].neck, aligned)
            per_task_rows[t].append(projected.data)
    all_keys = np.concatenate(keys, axis=0)
    return {t: build_prototypes(t, np.concatenate(per_task_rows[t], axis=0),
                                all_keys)
            for t in support_tasks}


@dataclass
class NovelModel:
    """The egopack arm's interaction branches around a warm-started model:
    frozen support necks and one interaction stack per support task."""

    base: MultiTaskModel
    novel: str
    support_necks: dict[str, MlpParams]
    interactions: dict[str, InteractionParams]
    banks: dict[str, PrototypeBank]
    cfg: TrainConfig

    def stage_features(self, stages: list[StageOutput],
                       videos: list[VideoSample], cache: VideoCache
                       ) -> list[Tensor]:
        """Per stage: mean of the novel branch and interaction branches;
        the banks are the only per-run state, so ``videos`` and ``cache``
        go unread.

        Support branches start from detached backbone features, so the
        novel loss cannot reach the backbone through them.
        """
        branch = self.base.branches[self.novel]
        out = []
        for s in stages:
            parts = [neck_forward(branch.neck, s.features)]
            blocked = s.features.detach()
            for t in sorted(self.interactions):
                sup = neck_forward(self.support_necks[t], blocked)
                parts.append(interaction_forward(
                    self.interactions[t], sup, self.banks[t],
                    self.cfg.knn_k))
            out.append(fuse_features(parts))
        return out


def run_novel(novel_task: str, ds: SynthDataset, cfg: TrainConfig,
              support_model: MultiTaskModel,
              banks: dict[str, PrototypeBank] | None = None,
              interaction: bool = True, freeze_backbone: bool = False
              ) -> tuple[MultiTaskModel, NovelModel | None]:
    """Train a novel task against a phase-one support model.

    ``interaction=True`` is the transfer path (egopack) and returns its
    ``NovelModel``; ``interaction=False`` trains the warm-started model
    alone, the fine-tune baseline, and returns None in its place;
    ``freeze_backbone=True`` on top of that is the head-tuning baseline.
    Only the novel task's annotations are readable in this phase.
    """
    if interaction and not banks:
        raise ValueError("interaction requires prototype banks")
    world = support_model.world
    backbone_cfg = replace(support_model.backbone_cfg,
                           num_stages=stage_count_for([novel_task]))
    rng = np.random.default_rng(cfg.seed + 17)

    # warm-start: copy phase-one backbone weights; reuse them for extra
    # stages the support model did not have. Both backbones come from one
    # config whose widths are all ``dim``, so every shape agrees.
    backbone = BackboneParams.init(rng, backbone_cfg)
    src_stages = support_model.backbone.stages
    for i, block in enumerate(backbone.stages):
        src_block = src_stages[min(i, len(src_stages) - 1)]
        for lp, src_lp in zip(block, src_block):
            for t, src_t in zip(lp.params(), src_lp.params()):
                t.data[...] = src_t.data

    model = MultiTaskModel.init(rng, [novel_task], world, backbone_cfg)
    model.backbone = backbone
    if freeze_backbone:
        _freeze(model.backbone)
    if not interaction:
        _train_loop(model, ds.train, cfg)
        return model, None

    novel = _egopack_arm(
        model, novel_task,
        {t: support_model.branches[t].neck for t in banks}, banks, cfg, rng)
    _train_loop(model, ds.train, cfg, novel)
    return model, novel


# interaction layers per support task in the egopack arm
_INTERACTION_LAYERS = 2


def _egopack_arm(model: MultiTaskModel, task: str,
                 support_necks: dict[str, MlpParams],
                 banks: dict[str, PrototypeBank], cfg: TrainConfig,
                 rng: np.random.Generator) -> NovelModel:
    """The egopack arm around ``model``'s ``task`` branch, laid out per
    support task in sorted order: a frozen copy of its neck and a fresh
    interaction stack. The stacks train in the branch's optimizer group as
    its ``extra`` weights, so ``model.npz`` holds them in that order."""
    tasks = sorted(banks)
    necks = {t: copy.deepcopy(support_necks[t]) for t in tasks}
    _freeze(*necks.values())
    interactions = {t: InteractionParams.init(rng, model.world.dim,
                                              _INTERACTION_LAYERS)
                    for t in tasks}
    model.branches[task].extra = [
        p for t in tasks for p in interactions[t].params()]
    return NovelModel(model, task, necks, interactions, banks, cfg)


# ---------------------------------------------------------------------------
# token-translation arm
# ---------------------------------------------------------------------------

@dataclass
class TranslationModel:
    """Novel model whose dense features are encoder-translated tokens."""

    base: MultiTaskModel
    novel: str
    support_models: dict[str, MultiTaskModel]
    encoder: TranslationParams

    def stage_features(self, stages: list[StageOutput],
                       videos: list[VideoSample], cache: VideoCache
                       ) -> list[Tensor]:
        """At the dense stage, per video, all tasks' tokens through the
        masked encoder, keeping the novel task's rows; coarser stages read
        the novel neck. Support tokens are frozen features, computed once
        per (support task, video) in ``cache``."""
        graph = stages[DENSE_STAGE].graph
        neck = self.base.branches[self.novel].neck
        necked = neck_forward(neck, stages[DENSE_STAGE].features)
        out_rows = []
        for vi, video in enumerate(videos):
            sl = graph.video_slice(vi)
            rows = gather_rows(necked, np.arange(sl.start, sl.stop))
            tokens = {self.novel: (rows, graph.positions_s[sl], 1)}
            for t, m in self.support_models.items():
                tokens[t] = cache.get(("tokens", t, id(video)),
                                      lambda: self._support_tokens(t, m, video))
            out_rows.append(translation_forward(self.encoder, tokens,
                                                self.novel, cache))
        return [concat_rows(out_rows)] + [neck_forward(neck, s.features)
                                          for s in stages[1:]]

    @staticmethod
    def _support_tokens(task: str, m: MultiTaskModel, video: VideoSample
                        ) -> tuple[Tensor, np.ndarray, int]:
        """One video's detached dense-stage neck tokens from a frozen
        support model."""
        dense = m.forward_backbone([video])[DENSE_STAGE]
        sup = neck_forward(m.branches[task].neck, dense.features)
        return sup.detach(), dense.graph.positions_s, 1


def run_translation(novel_task: str, ds: SynthDataset, cfg: TrainConfig,
                    support_models: dict[str, MultiTaskModel],
                    backbone_cfg: BackboneConfig | None = None
                    ) -> tuple[MultiTaskModel, TranslationModel]:
    """Train the encoder-translation baseline for a novel task.

    Support models stay frozen token providers; the novel backbone, neck,
    head, and the encoder train on the novel task only.
    """
    world = WorldInfo.from_dataset(ds)
    rng = np.random.default_rng(cfg.seed + 29)
    model = MultiTaskModel.init(
        rng, [novel_task], world,
        backbone_layout([novel_task], world.dim, backbone_cfg))
    tm = _translation_arm(model, novel_task, support_models, rng)
    _train_loop(model, ds.train, cfg, tm)
    return model, tm


def _translation_arm(model: MultiTaskModel, task: str,
                     support_models: dict[str, MultiTaskModel],
                     rng: np.random.Generator) -> TranslationModel:
    """The translation arm around ``model``'s ``task`` branch: the support
    models, in sorted order, frozen as token providers, and an encoder
    over their tokens and the task's. The encoder trains in the branch's
    optimizer group as its ``extra`` weights, so ``model.npz`` holds it."""
    support = {t: support_models[t] for t in sorted(support_models)}
    _freeze(*support.values())
    encoder = TranslationParams.init(rng, model.world.dim, [*support, task])
    model.branches[task].extra = encoder.params()
    return TranslationModel(model, task, support, encoder)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _predict_video(task: str, branch: TaskBranch, feats: list[Tensor],
                   stages: list[StageOutput], video: VideoSample, idx: int,
                   view: AnnotationView, cfg: TrainConfig):
    """One video's predictions for ``task``, paired with its ground truth;
    ``idx`` seeds the forecast sampling."""
    graph = stages[DENSE_STAGE].graph
    necked = feats[DENSE_STAGE]
    if task in ("ar", "oscc"):
        ivals, *labels = view.annotations(video, task)
        aligned, _ = align_video_intervals(necked, graph, 0, ivals)
        return {h: (mlp_forward(branch.heads[h], aligned).data.argmax(axis=1),
                    y) for h, y in zip(_CLASS_HEADS[task], labels)}
    if task == "pnr":
        ivals, times = view.annotations(video, "pnr")
        scores = scorer_forward(branch.heads["scorer"], necked).data[:, 0]
        nodes, ids = _covered_nodes(graph.positions_s, ivals)
        picks = nodes[_first_min(-scores[nodes], ids)]
        return list(zip(graph.positions_s[picks], times[np.unique(ids)]))
    if task == "mq":
        ivals, cats = view.annotations(video, "mq")
        cands = []  # (intervals, scores, classes) per stage
        for f, stage_out in zip(feats, stages):
            scores, offsets = mq_forward(branch.heads["mq"], f,
                                         stage_out.graph.stage)
            cands.append(mq_decode(
                stage_out.graph.positions_s, scores.data, offsets.data,
                (0.0, video.duration_s), cfg.mq_min_score))
        # unsuppressed: _score suppresses every video's candidates at once
        return ivals, cats, tuple(np.concatenate(parts)
                                  for parts in zip(*cands))
    if task == "lta":
        anchor, verbs, nouns = view.annotations(video, "lta")
        if len(verbs) == 0 or anchor[1] <= 0:
            return None
        context, _ = align_video_intervals(necked, graph, 0, np.array([anchor]))
        vl, nl = lta_forward(branch.heads["lta"], context)
        rng = np.random.default_rng(cfg.seed * 100003 + idx)
        cands = lta_candidates(vl.data, nl.data, cfg.num_candidates, rng)
        z = len(verbs)
        return (edit_distance([c[0][:z] for c in cands], verbs),
                edit_distance([c[1][:z] for c in cands], nouns))
    raise ValueError(f"unknown task {task!r}")


def _score(task: str, records: list) -> dict:
    """Metrics of ``task`` over every video's ``_predict_video`` record; a
    metric no video can score is None."""
    if task in ("ar", "oscc"):
        top1 = {h: top1_accuracy(np.concatenate([r[h][0] for r in records]),
                                 np.concatenate([r[h][1] for r in records]))
                for h in _CLASS_HEADS[task]}
        if task == "oscc":
            return {"top1": top1["cls"]}
        return {"verb_top1": top1["verb"], "noun_top1": top1["noun"],
                "mean_top1": (top1["verb"] + top1["noun"]) / 2.0}
    if task == "pnr":
        pairs = [pair for r in records for pair in r]
        return {"loc_err_s": localization_error([p for p, _ in pairs],
                                                [t for _, t in pairs])
                if pairs else None}
    if task == "mq":
        # each list starts with an empty part, so no videos means no rows
        det_i, det_s, det_c = ([np.empty((0, 2))], [np.empty(0)],
                               [np.empty(0, dtype=np.intp)])
        gt_i, gt_c = [np.empty((0, 2))], [np.empty(0, dtype=np.intp)]
        for ivals, cats, (iv, sc, cl) in records:
            gt_i.append(ivals)
            gt_c.append(cats)
            det_i.append(iv)
            det_s.append(sc)
            det_c.append(cl)
        # a video's code is its record index
        codes = np.arange(len(records), dtype=np.intp)
        gt_v = np.repeat(codes, [len(c) for c in gt_c[1:]])
        det_v = np.repeat(codes, [len(s) for s in det_s[1:]])
        det_i, det_s, det_c, gt_i, gt_c = (
            np.concatenate(parts) for parts in (det_i, det_s, det_c, gt_i, gt_c))
        # one suppression over every (video, class) group; detections come
        # out by video, then class, then pick order
        keep, det_s = soft_nms(det_i, det_s, groups=det_v * (
            det_c.max(initial=0) + 1) + det_c)
        det_i, det_c, det_v = det_i[keep], det_c[keep], det_v[keep]
        result = map_at_iou(det_i, det_s, det_c, det_v, gt_i, gt_c, gt_v)
        recall = recall_at_k(det_i, det_s, det_c, det_v, gt_i, gt_c, gt_v,
                             ks=(1, 5))
        return {
            "map_avg": result["mean"],
            **{f"map@{thr:.1f}": v
               for thr, v in result["per_threshold"].items()},
            **{f"recall@{k}_iou0.5": v for k, v in recall.items()},
        }
    eds = [r for r in records if r is not None]
    if not eds:
        return {"verb_ed": None, "noun_ed": None, "mean_ed": None}
    verb_ed = float(np.mean([v for v, _ in eds]))
    noun_ed = float(np.mean([n for _, n in eds]))
    return {"verb_ed": verb_ed, "noun_ed": noun_ed,
            "mean_ed": (verb_ed + noun_ed) / 2.0}


def evaluate(model: MultiTaskModel, videos: list[VideoSample],
             cfg: TrainConfig, tasks=None,
             novel: NovelModel | None = None,
             translation: TranslationModel | None = None) -> dict:
    """Validation metrics per task; deterministic given cfg.seed.

    Each video gets one graph and one backbone pass, which every task
    reads; a metric no video can score is None. A model has at most one
    transfer arm, so ``novel`` and ``translation`` together raise
    ``ValueError``.
    """
    if novel is not None and translation is not None:
        raise ValueError("evaluate: pass novel= or translation=, not both")
    arm = novel if novel is not None else translation
    tasks = sorted(tasks or model.tasks)
    view = AnnotationView(tasks, model.world.lta_steps)
    cache = VideoCache()
    records: dict[str, list] = {task: [] for task in tasks}
    for idx, video in enumerate(videos):
        stages = model.forward_backbone([video], cache)
        for task in tasks:
            feats = _stage_features(model, task, stages, [video], arm,
                                    cache)
            records[task].append(_predict_video(
                task, model.branches[task], feats, stages, video, idx,
                view, cfg))
    return {task: _score(task, records[task]) for task in tasks}
