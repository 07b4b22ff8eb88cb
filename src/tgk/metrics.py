"""Evaluation metrics: classification, sequence, and interval detection.

Detection metrics work on flat parallel arrays (interval, score, class,
video id per detection) so callers can pool predictions from many videos
and stages. All interval math is 1-D [start, end] in seconds.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "top1_accuracy", "levenshtein", "edit_distance", "localization_error",
    "iou_1d", "iou_matrix", "soft_nms", "map_at_iou",
    "recall_at_k",
]


def top1_accuracy(pred: np.ndarray, true: np.ndarray) -> float:
    """Percentage of exact label matches."""
    pred = np.asarray(pred).reshape(-1)
    true = np.asarray(true).reshape(-1)
    if pred.shape != true.shape:
        raise ValueError("prediction/label length mismatch")
    return 100.0 * float((pred == true).mean())


def levenshtein(a, b) -> int:
    """Classic edit distance (insert/delete/substitute, unit costs)."""
    a, b = list(a), list(b)
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1,
                           prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[len(b)]


def edit_distance(candidates: list, target) -> float:
    """Best normalized edit distance over candidate sequences.

    Each candidate is scored as levenshtein / len(target); the minimum
    over candidates is returned, matching take-the-best-of-K evaluation.
    """
    target = list(target)
    if not candidates:
        raise ValueError("need at least one candidate")
    return min(levenshtein(c, target) for c in candidates) / len(target)


def localization_error(pred_times_s: np.ndarray, true_times_s: np.ndarray) -> float:
    """Mean absolute timestamp error in seconds."""
    pred = np.asarray(pred_times_s, dtype=np.float64).reshape(-1)
    true = np.asarray(true_times_s, dtype=np.float64).reshape(-1)
    if pred.shape != true.shape:
        raise ValueError("prediction/target length mismatch")
    return float(np.abs(pred - true).mean())


# ---------------------------------------------------------------------------
# interval detection
# ---------------------------------------------------------------------------

def iou_1d(a, b) -> float:
    """IoU of two [start, end] intervals; degenerate unions score 0."""
    inter = max(0.0, min(a[1], b[1]) - max(a[0], b[0]))
    union = (a[1] - a[0]) + (b[1] - b[0]) - inter
    return inter / union if union > 0 else 0.0


def _iou(a_lo, a_hi, b_lo, b_hi) -> np.ndarray:
    """IoU of intervals a and b, elementwise over the broadcast shape of
    their bounds; degenerate unions score 0."""
    inter = np.maximum(0.0, np.minimum(a_hi, b_hi) - np.maximum(a_lo, b_lo))
    union = (a_hi - a_lo) + (b_hi - b_lo) - inter
    out = np.zeros_like(inter)
    np.divide(inter, union, out=out, where=union > 0)
    return out


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise IoU between two interval sets, shape (len(a), len(b))."""
    a = np.asarray(a, dtype=np.float64).reshape(-1, 2)
    b = np.asarray(b, dtype=np.float64).reshape(-1, 2)
    return _iou(a[:, None, 0], a[:, None, 1], b[None, :, 0], b[None, :, 1])


def soft_nms(intervals: np.ndarray, scores: np.ndarray, sigma: float = 2.0,
             floor: float = 1e-3, groups=None
             ) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian soft suppression within each group of candidate intervals.

    ``groups`` gives every row an integer key; None makes one group. In
    each group, repeatedly picks the best remaining candidate (score desc,
    then start asc, then input order) and decays every other candidate's
    score by exp(-iou^2 / sigma) against the pick. Candidates whose
    decayed score falls below ``floor`` are discarded. Returns (kept input
    indices, decayed scores), group by group in ascending key order, each
    group in pick order.

    Every group is suppressed at once: the survivors are laid out as
    padded rows, one per group, sorted by start (ties in input order), so
    each row's first highest score is its group's pick, and the pick's
    decay row is computed against its own row only.
    """
    intervals = np.asarray(intervals, dtype=np.float64).reshape(-1, 2)
    scores = np.asarray(scores, dtype=np.float64)
    key = (np.zeros(len(scores), np.intp) if groups is None
           else np.asarray(groups))
    order = np.lexsort((intervals[:, 0], key))
    order = order[scores[order] >= floor]
    _, first, size = np.unique(key[order], return_index=True,
                               return_counts=True)
    # slot[g, j]: input index of group g's j-th survivor, -1 past its end
    slot = np.full((len(size), size.max(initial=0)), -1, dtype=np.intp)
    slot[np.repeat(np.arange(len(size)), size),
         np.arange(len(order)) - np.repeat(first, size)] = order
    alive = slot >= 0
    lo, hi = intervals[slot, 0], intervals[slot, 1]
    live = np.where(alive, scores[slot], 0.0)  # the decayed scores
    group = np.arange(len(size))
    picks = [(np.empty(0, np.intp), np.empty(0, np.intp), np.empty(0))]
    while len(group):
        pos = np.where(alive, live, -np.inf).argmax(axis=1)
        at = np.arange(len(group))
        picks.append((group, slot[at, pos], live[at, pos]))
        ov = _iou(lo[at, pos, None], hi[at, pos, None], lo, hi)
        live = live * np.exp(-(ov * ov) / sigma)
        alive &= live >= floor
        alive[at, pos] = False
        go = alive.any(axis=1)
        group, slot, lo, hi, live, alive = (
            a[go] for a in (group, slot, lo, hi, live, alive))
    group, kept, decayed = (np.concatenate(parts) for parts in zip(*picks))
    by_group = np.argsort(group, kind="stable")
    return kept[by_group], decayed[by_group]


def _detection_inputs(det_intervals, det_scores, det_classes, det_videos,
                      gt_intervals, gt_classes, gt_videos):
    """Detections and ground truth as arrays: intervals (K, 2) float,
    scores float, classes int, and video ids as integer codes, equal ids
    sharing one code; a ground truth video without detections gets -1."""
    names, det_vid = np.unique(np.asarray(det_videos), return_inverse=True)
    code = {v: i for i, v in enumerate(names.tolist())}
    gt_names, gt_inv = np.unique(np.asarray(gt_videos), return_inverse=True)
    gt_codes = np.array([code.get(v, -1) for v in gt_names.tolist()],
                        dtype=np.intp)
    return (np.asarray(det_intervals, dtype=np.float64).reshape(-1, 2),
            np.asarray(det_scores, dtype=np.float64),
            np.asarray(det_classes, dtype=np.intp), det_vid,
            np.asarray(gt_intervals, dtype=np.float64).reshape(-1, 2),
            np.asarray(gt_classes, dtype=np.intp), gt_codes[gt_inv])


def _greedy_hits(ious: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Greedy matching of ranked detections (rows of ``ious``) to one
    video's ground truth (columns) at every threshold at once.

    Each detection claims the unclaimed ground truth of highest IoU (the
    first on ties) when that IoU reaches the threshold. Returns (T, rows)
    hits as 0/1 floats.
    """
    t = np.arange(len(thresholds))
    claimed = np.zeros((len(thresholds), ious.shape[1]), dtype=bool)
    hits = np.zeros((len(thresholds), len(ious)))
    # a row whose best IoU misses every threshold claims nothing
    reach = ious.max(axis=1) >= thresholds.min(initial=np.inf)
    for j in np.nonzero(reach)[0]:
        row = ious[j]
        masked = np.where(claimed, -1.0, row)
        best = masked.argmax(axis=1)
        hit = masked[t, best] >= thresholds
        claimed[t[hit], best[hit]] = True
        hits[:, j] = hit
    return hits


def _envelope_ap(tp: np.ndarray, n_gt: int) -> np.ndarray:
    """All-point interpolated AP per row of ranked 0/1 hits: the precision
    envelope integrated over recall."""
    cum_tp = np.cumsum(tp, axis=1)
    recall = cum_tp / n_gt
    precision = cum_tp / np.arange(1, tp.shape[1] + 1)
    # envelope: best precision at any recall >= r
    envelope = np.maximum.accumulate(precision[:, ::-1], axis=1)[:, ::-1]
    steps = np.diff(recall, axis=1, prepend=0.0)
    # a running total, left to right; np.sum's pairwise order rounds
    # differently
    return np.cumsum(steps * envelope, axis=1)[:, -1]


def map_at_iou(det_intervals, det_scores, det_classes, det_videos,
               gt_intervals, gt_classes, gt_videos,
               thresholds=(0.1, 0.2, 0.3, 0.4, 0.5)) -> dict:
    """Mean average precision over IoU thresholds and classes.

    Matching is confined to same (video, class) groups. A class's AP at a
    threshold averages over nothing but its own ground truth; classes
    without any ground truth are skipped; the reported value per threshold
    is the mean over classes, and "mean" averages the thresholds. All
    values are percentages.

    AP per class pools videos: all detections of the class are ranked
    together by descending score (ties keep input order), and each greedily
    claims ground truth in its own video only (see ``_greedy_hits``).
    """
    (det_intervals, det_scores, det_classes, det_vid, gt_intervals,
     gt_classes, gt_vid) = _detection_inputs(
        det_intervals, det_scores, det_classes, det_videos, gt_intervals,
        gt_classes, gt_videos)
    thr = np.asarray(thresholds, dtype=np.float64)
    classes = sorted(set(gt_classes.tolist()))
    aps = np.zeros((len(thr), len(classes)))
    for c, cls in enumerate(classes):
        sel = np.nonzero(det_classes == cls)[0]
        if len(sel) == 0:
            continue
        order = sel[np.argsort(-det_scores[sel], kind="stable")]
        ranked_vid = det_vid[order]
        gt_sel = np.nonzero(gt_classes == cls)[0]
        tp = np.zeros((len(thr), len(order)))
        for v in np.unique(gt_vid[gt_sel]):
            ranks = np.nonzero(ranked_vid == v)[0]
            if len(ranks):
                ious = iou_matrix(det_intervals[order[ranks]],
                                  gt_intervals[gt_sel[gt_vid[gt_sel] == v]])
                tp[:, ranks] = _greedy_hits(ious, thr)
        aps[:, c] = _envelope_ap(tp, len(gt_sel))
    per_thr = {float(t): 100.0 * float(np.mean(row)) if classes else 0.0
               for t, row in zip(thr, aps)}
    return {"per_threshold": per_thr,
            "mean": float(np.mean(list(per_thr.values()))) if per_thr else 0.0}


def recall_at_k(det_intervals, det_scores, det_classes, det_videos,
                gt_intervals, gt_classes, gt_videos,
                k: int, iou_thr: float = 0.5) -> float:
    """Percentage of ground truths hit by a top-k prediction.

    Detections are grouped per (video, class) and cut to the k highest
    scores (ties keep input order); a ground truth counts as recalled when
    any of those overlaps it with IoU >= iou_thr.
    """
    (det_intervals, det_scores, det_classes, det_vid, gt_intervals,
     gt_classes, gt_vid) = _detection_inputs(
        det_intervals, det_scores, det_classes, det_videos, gt_intervals,
        gt_classes, gt_videos)
    # one integer key per (video, class); -1 for ground truth whose video
    # has no detections
    classes, cls = np.unique(np.concatenate([det_classes, gt_classes]),
                             return_inverse=True)
    det_key = det_vid * len(classes) + cls[:len(det_classes)]
    gt_key = np.where(gt_vid >= 0,
                      gt_vid * len(classes) + cls[len(det_classes):], -1)
    # grouped by key, then by descending score, ties in input order
    order = np.lexsort((-det_scores, det_key))
    sorted_key = det_key[order]
    recalled = 0
    for key in np.unique(gt_key[gt_key >= 0]):
        lo = int(np.searchsorted(sorted_key, key, side="left"))
        hi = int(np.searchsorted(sorted_key, key, side="right"))
        if hi > lo:
            top = order[lo:hi][:k]
            ious = iou_matrix(gt_intervals[gt_key == key], det_intervals[top])
            recalled += int((ious >= iou_thr).any(axis=1).sum())
    total = len(gt_intervals)
    return 100.0 * recalled / total if total else 0.0
