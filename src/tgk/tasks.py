"""Task-specific processing on top of the shared backbone.

Every task follows the same shape: the backbone produces per-segment
features, a per-task neck (two-layer MLP) reprojects them, an alignment
step turns node features into per-annotation features where the task needs
it, and a small head produces the output. Heads stay deliberately thin so
the backbone and necks carry the representation.

Tasks covered:
  - clip classification over an annotated interval (recognition,
    state-change detection) via ``align_video_intervals`` + classifier;
  - per-node keyframe scoring (a linear scorer trained with BCE);
  - forecasting: a small fully-connected future graph seeded by tiling the
    observed-context vector, refined by two time-aware layers;
  - moment queries: anchor-free per-node detection at every pyramid stage
    (class probabilities + boundary offsets), decoded back to intervals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (
    Tensor, _emit, gather_rows, linear, mul, power_grad, relu, segment_mean,
    sigmoid, softplus, sub, tmean,
)
from .graph import TemporalGraph, build_graph, stage_scale
from .layers import TdgcParams, tdgc_forward
from .optim import linear_init

__all__ = [
    "MlpParams", "mlp_forward", "neck_forward", "ScorerParams",
    "scorer_forward", "LtaParams", "lta_forward", "lta_candidates", "MqParams", "mq_forward", "mq_decode", "mq_targets",
    "interval_nodes", "align_video_intervals",
    "bce_with_logits", "focal_loss", "diou_loss",
]


# ---------------------------------------------------------------------------
# necks and alignment
# ---------------------------------------------------------------------------

@dataclass
class MlpParams:
    """Two-layer perceptron, ``d_in -> d_hidden -> d_out`` with a ReLU
    between: every task neck, classifier head and encoder feed-forward."""

    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor

    @classmethod
    def init(cls, rng, d_in: int, d_hidden: int, d_out: int) -> "MlpParams":
        return cls(*linear_init(rng, d_in, d_hidden),
                   *linear_init(rng, d_hidden, d_out))

    def params(self) -> list[Tensor]:
        return [self.w1, self.b1, self.w2, self.b2]


def mlp_forward(p: MlpParams, x: Tensor) -> Tensor:
    return linear(relu(linear(x, p.w1, p.b1)), p.w2, p.b2)


# the per-task neck, named apart from the heads so its calls count apart
neck_forward = mlp_forward


def interval_nodes(positions_s: np.ndarray, intervals: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nodes each interval covers, from one (intervals x nodes)
    comparison.

    A node belongs to interval (start, end) when start < t < end, both
    strict. An interval capturing no node falls back to the single node
    nearest its midpoint, the first on ties; ``fallback`` flags those
    intervals. Returns (nodes, ids, fallback), one (node, interval id)
    pair per membership, interval-major with nodes ascending.
    """
    pos = np.asarray(positions_s, dtype=np.float64)
    ivals = np.asarray(intervals, dtype=np.float64).reshape(-1, 2)
    inside = (pos > ivals[:, :1]) & (pos < ivals[:, 1:])
    fallback = ~inside.any(axis=1)
    empty = np.nonzero(fallback)[0]
    mid = 0.5 * (ivals[empty, 0] + ivals[empty, 1])
    inside[empty, np.argmin(np.abs(pos - mid[:, None]), axis=1)] = True
    ids, nodes = np.nonzero(inside)
    return nodes, ids, fallback


def align_video_intervals(x: Tensor, g: TemporalGraph, video: int,
                          intervals: np.ndarray) -> tuple[Tensor, np.ndarray]:
    """Average the features of one video of a batch graph over each time
    interval's ``interval_nodes``, through one gather of the batch rows
    and one segment mean; the second return value flags the intervals
    that fell back to one node."""
    sl = g.video_slice(video)
    nodes, ids, fallback = interval_nodes(g.positions_s[sl], intervals)
    return (segment_mean(gather_rows(x, nodes + sl.start), ids, len(fallback)),
            fallback)


# ---------------------------------------------------------------------------
# heads
# ---------------------------------------------------------------------------

@dataclass
class ScorerParams:
    """Linear per-node scorer producing one logit."""

    w: Tensor
    b: Tensor

    @classmethod
    def init(cls, rng, dim: int) -> "ScorerParams":
        return cls(*linear_init(rng, dim, 1))

    def params(self) -> list[Tensor]:
        return [self.w, self.b]


def scorer_forward(p: ScorerParams, x: Tensor) -> Tensor:
    return linear(x, p.w, p.b)


@dataclass
class LtaParams:
    """Forecasting head: refine a tiled context over a future graph.

    The future is modeled as ``num_steps`` placeholder nodes at times
    1..Z seconds, fully connected, every node starting from the same
    observed-context vector. Two time-aware layers differentiate the steps
    before per-step verb and noun classification.
    """

    refine1: TdgcParams
    refine2: TdgcParams
    verb_cls: MlpParams
    noun_cls: MlpParams
    num_steps: int

    @classmethod
    def init(cls, rng, dim: int, num_verbs: int, num_nouns: int,
             num_steps: int) -> "LtaParams":
        return cls(
            refine1=TdgcParams.init(rng, dim, dim),
            refine2=TdgcParams.init(rng, dim, dim),
            verb_cls=MlpParams.init(rng, dim, dim, num_verbs),
            noun_cls=MlpParams.init(rng, dim, dim, num_nouns),
            num_steps=num_steps,
        )

    def params(self) -> list[Tensor]:
        return (self.refine1.params() + self.refine2.params()
                + self.verb_cls.params() + self.noun_cls.params())


def _future_graph(num_contexts: int, num_steps: int, dim: int) -> TemporalGraph:
    positions = np.tile(np.arange(1, num_steps + 1, dtype=np.float64),
                        num_contexts)
    bounds = np.arange(num_contexts + 1) * num_steps
    return build_graph(np.zeros((num_contexts * num_steps, dim)), positions,
                       bounds, threshold_s=float(num_steps + 1))


def lta_forward(p: LtaParams, context: Tensor) -> tuple[Tensor, Tensor]:
    """Per-step verb and noun logits for each context row.

    ``context`` is (M, D); the outputs are (M * num_steps, classes) with
    context m's steps occupying rows m*num_steps .. (m+1)*num_steps - 1.
    Each context gets its own fully connected run of future placeholders,
    kept separate through the video boundaries of the shared graph.
    """
    m = context.shape[0]
    g = _future_graph(m, p.num_steps, context.shape[1])
    x = gather_rows(context, np.repeat(np.arange(m), p.num_steps))
    x = relu(tdgc_forward(p.refine1, g, x))
    x = tdgc_forward(p.refine2, g, x)
    return mlp_forward(p.verb_cls, x), mlp_forward(p.noun_cls, x)


def lta_candidates(verb_logits: np.ndarray, noun_logits: np.ndarray,
                   k: int, rng: np.random.Generator
                   ) -> list[tuple[np.ndarray, np.ndarray]]:
    """K candidate future sequences: the argmax one, then sampled ones.

    Sampling draws each step independently from the softmax distribution,
    so candidates are deterministic given the generator state.
    """
    def rows_softmax(z):
        z = z - z.max(axis=1, keepdims=True)
        e = np.exp(z)
        return e / e.sum(axis=1, keepdims=True)

    out = [(verb_logits.argmax(axis=1), noun_logits.argmax(axis=1))]
    pv, pn = rows_softmax(verb_logits), rows_softmax(noun_logits)
    z = verb_logits.shape[0]
    for _ in range(k - 1):
        verbs = np.array([rng.choice(pv.shape[1], p=pv[i]) for i in range(z)])
        nouns = np.array([rng.choice(pn.shape[1], p=pn[i]) for i in range(z)])
        out.append((verbs, nouns))
    return out


@dataclass
class MqParams:
    """Anchor-free per-node detection head shared across pyramid stages."""

    w_cls: Tensor
    b_cls: Tensor
    w_reg: Tensor
    b_reg: Tensor

    @classmethod
    def init(cls, rng, dim: int, num_classes: int) -> "MqParams":
        w_cls, b_cls = linear_init(rng, dim, num_classes)
        w_reg, b_reg = linear_init(rng, dim, 2)
        return cls(w_cls, b_cls, w_reg, b_reg)

    def params(self) -> list[Tensor]:
        return [self.w_cls, self.b_cls, self.w_reg, self.b_reg]


def mq_forward(p: MqParams, x: Tensor, stage: int) -> tuple[Tensor, Tensor]:
    """Class probabilities (N, C) and boundary offsets in seconds (N, 2).

    Offsets are kept positive by softplus and scaled by the stage's
    doubling factor, so coarse stages regress proportionally longer spans
    from the same parameter range.
    """
    scores = sigmoid(linear(x, p.w_cls, p.b_cls))
    offsets = mul(softplus(linear(x, p.w_reg, p.b_reg)),
                  Tensor(np.array(stage_scale(stage))))
    return scores, offsets


def mq_decode(positions_s: np.ndarray, scores: np.ndarray,
              offsets_s: np.ndarray, extent_s: tuple[float, float],
              min_score: float = 0.0):
    """Turn per-node predictions into candidate intervals.

    Each node proposes, per class, the interval
    [t - offset_left, t + offset_right] clamped to the video extent.
    Degenerate proposals (no positive length after clamping) and proposals
    below ``min_score`` are dropped. Returns (intervals (K, 2), scores
    (K,), classes (K,)) in node-major, class-minor order.
    """
    positions_s = np.asarray(positions_s, dtype=np.float64)
    scores = np.asarray(scores, dtype=np.float64)
    offsets_s = np.asarray(offsets_s, dtype=np.float64)
    lo, hi = float(extent_s[0]), float(extent_s[1])
    starts = np.clip(positions_s - offsets_s[:, 0], lo, hi)
    ends = np.clip(positions_s + offsets_s[:, 1], lo, hi)
    keep = ~(ends <= starts)[:, None] & ~(scores < min_score)
    nodes, classes = np.nonzero(keep)  # row-major: node-major, class-minor
    return (np.stack([starts[nodes], ends[nodes]], axis=1),
            scores[nodes, classes], classes.astype(np.intp))


def mq_targets(positions_s: np.ndarray, stage: int, segments: np.ndarray,
               labels: np.ndarray, num_classes: int):
    """Per-node supervision for the detection head at one stage.

    A node is positive for the shortest ground-truth segment containing
    its timestamp (inclusive bounds). Positives get a one-hot class row
    and boundary offsets divided by the stage scale, matching the head's
    pre-scale output; everything else stays zero.

    Returns (class_target (N, C), offset_target (N, 2), positive_mask (N,)).
    """
    positions_s = np.asarray(positions_s, dtype=np.float64)
    segments = np.asarray(segments, dtype=np.float64).reshape(-1, 2)
    labels = np.asarray(labels, dtype=np.intp)
    n = positions_s.shape[0]
    cls_t = np.zeros((n, num_classes))
    off_t = np.zeros((n, 2))
    pos_mask = np.zeros(n, dtype=bool)
    scale = stage_scale(stage)
    durations = segments[:, 1] - segments[:, 0]
    for i, t in enumerate(positions_s):
        inside = np.nonzero((segments[:, 0] <= t) & (t <= segments[:, 1]))[0]
        if len(inside) == 0:
            continue
        best = inside[np.argmin(durations[inside])]
        pos_mask[i] = True
        cls_t[i, labels[best]] = 1.0
        off_t[i, 0] = (t - segments[best, 0]) / scale
        off_t[i, 1] = (segments[best, 1] - t) / scale
    return cls_t, off_t, pos_mask


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def bce_with_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean binary cross entropy, stable for large |logit|."""
    t = Tensor(np.asarray(targets, dtype=np.float64).reshape(logits.shape))
    return tmean(sub(softplus(logits), mul(logits, t)))


def focal_loss(probs: Tensor, targets: np.ndarray, alpha: float = 0.25,
               gamma: float = 2.0, normalizer: float | None = None) -> Tensor:
    """Focal binary loss on probabilities, as one record.

    Positives: -alpha * (1-p)^gamma * log(p); negatives:
    -(1-alpha) * p^gamma * log(1-p). Probabilities are clamped away from
    0 and 1. The sum is divided by ``normalizer`` (element count when not
    given); detection training passes the positive count instead.

    The forward replays the composed chain (``clip``; ``sub``, ``power``,
    ``log``, ``mul``, ``mul`` for the positives; ``power``, ``sub``,
    ``log``, ``mul``, ``mul`` for the negatives; ``add``, ``tsum``,
    ``div``) expression by expression, and the backward replays its
    records' backward closures in the tape's reverse order, the four
    gradients into the clipped ``p`` added in that order, so the loss and
    the gradient keep the chain's bytes.
    """
    t = np.asarray(targets, dtype=np.float64).reshape(probs.shape)
    gamma = float(gamma)
    if normalizer is None:
        normalizer = float(probs.size)
    norm = np.asarray(float(normalizer))
    lo, hi = 1e-7, 1.0 - 1e-7
    p = np.clip(probs.data, lo, hi)
    inside = (probs.data > lo) & (probs.data < hi)
    q = 1.0 - p
    q_pow, log_p = q ** gamma, np.log(p)
    p_pow, log_q = p ** gamma, np.log(q)
    w_pos, w_neg = -alpha * t, -(1.0 - alpha) * (1.0 - t)
    total = (q_pow * log_p * w_pos + p_pow * log_q * w_neg).sum()

    def back(g):
        g_sum = np.broadcast_to(g / norm, p.shape).copy()
        g_neg = g_sum * w_neg
        g_p = -(g_neg * p_pow / q)
        g_p += power_grad(g_neg * log_q, p, gamma)
        g_pos = g_sum * w_pos
        g_p += g_pos * q_pow / p
        g_p += -power_grad(g_pos * log_p, q, gamma)
        return (g_p * inside,)

    return _emit(total / norm, (probs,), back)


def diou_loss(pred: Tensor, target: np.ndarray) -> Tensor:
    """Distance-IoU loss for 1-D intervals, averaged over rows, as one
    record.

    ``pred`` and ``target`` are (M, 2) [start, end]. The penalty term is
    the squared center distance over the squared enclosing span, pulling
    disjoint intervals together where plain IoU has no gradient.

    The forward replays the composed chain (``take_cols`` per column, the
    intersection through ``minimum``, ``maximum``, ``sub`` and ``relu``,
    the union, the IoU, the center gap, the enclosing span, the penalty,
    ``tmean``) expression by expression, and the backward replays its
    records' backward closures in the tape's reverse order: the four
    gradients into each of the start and end columns are added in that
    order, each squared term's gradient is added once per factor, and the
    columns' scatter adds ``+ 0.0``, so the loss and the gradient keep the
    chain's bytes (ties in ``minimum`` and ``maximum`` go to the first
    argument).
    """
    tgt = np.asarray(target, dtype=np.float64).reshape(-1, 2)
    ps, pe = pred.data[:, [0]], pred.data[:, [1]]
    ts, te = tgt[:, [0]], tgt[:, [1]]
    end_first, start_first = pe <= te, ps >= ts
    overlap = np.where(end_first, pe, te) - np.where(start_first, ps, ts)
    live = overlap > 0.0
    inter = np.maximum(overlap, 0.0)
    union = pe - ps + (te - ts) - inter
    gap = (ps + pe) * 0.5 - (ts + te) * 0.5
    end_last, start_last = pe >= te, ps <= ts
    span = np.where(end_last, pe, te) - np.where(start_last, ps, ts)
    gap2, span2 = gap * gap, span * span

    def back(g):
        g_term = np.broadcast_to(g, span.shape).copy() / span.size
        g_iou = -g_term
        g_gap = g_term / span2 * gap
        g_gap += g_gap
        g_span = -g_term * gap2 / (span2 * span2) * span
        g_span += g_span
        g_mid = g_gap * 0.5
        g_ps = -g_span * start_last + g_mid
        g_pe = g_span * end_last + g_mid
        g_union = -g_iou * inter / (union * union)
        g_pe += g_union
        g_ps += -g_union
        g_overlap = (g_iou / union + -g_union) * live
        g_ps += -g_overlap * start_first
        g_pe += g_overlap * end_first
        return (np.concatenate((g_ps, g_pe), axis=1) + 0.0,)

    return _emit((1.0 - inter / union + gap2 / span2).mean(), (pred,), back)
