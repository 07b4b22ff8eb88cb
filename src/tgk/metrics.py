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


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise IoU between two interval sets, shape (len(a), len(b))."""
    a = np.asarray(a, dtype=np.float64).reshape(-1, 2)
    b = np.asarray(b, dtype=np.float64).reshape(-1, 2)
    inter = np.maximum(0.0, np.minimum(a[:, None, 1], b[None, :, 1])
                       - np.maximum(a[:, None, 0], b[None, :, 0]))
    union = ((a[:, 1] - a[:, 0])[:, None] + (b[:, 1] - b[:, 0])[None, :] - inter)
    out = np.zeros_like(inter)
    np.divide(inter, union, out=out, where=union > 0)
    return out


def soft_nms(intervals: np.ndarray, scores: np.ndarray, sigma: float = 2.0,
             floor: float = 1e-3) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian soft suppression over one group of candidate intervals.

    Repeatedly picks the best remaining candidate (score desc, then start
    asc, then input order) and decays every other candidate's score by
    exp(-iou^2 / sigma) against the pick. Candidates whose decayed score
    falls below ``floor`` are discarded. Returns (kept input indices,
    decayed scores) in pick order.
    """
    intervals = np.asarray(intervals, dtype=np.float64).reshape(-1, 2)
    scores = np.asarray(scores, dtype=np.float64).copy()
    alive = [i for i in range(len(scores)) if scores[i] >= floor]
    kept_idx, kept_score = [], []
    while alive:
        best = min(alive, key=lambda i: (-scores[i], intervals[i, 0], i))
        kept_idx.append(best)
        kept_score.append(scores[best])
        alive.remove(best)
        survivors = []
        for i in alive:
            overlap = iou_1d(intervals[best], intervals[i])
            scores[i] *= np.exp(-(overlap * overlap) / sigma)
            if scores[i] >= floor:
                survivors.append(i)
        alive = survivors
    return np.asarray(kept_idx, dtype=np.intp), np.asarray(kept_score)


def _group(values: np.ndarray, *keys) -> dict:
    """Index rows by tuple of key columns."""
    out: dict = {}
    for i in range(len(values)):
        out.setdefault(tuple(k[i] for k in keys), []).append(i)
    return out


def _class_ap(sel: np.ndarray, det_intervals: np.ndarray,
              det_scores: np.ndarray, det_videos: np.ndarray,
              gt_by_video: dict, n_gt: int, thr: float):
    """All-point interpolated AP of one class's detections ``sel``.

    Detections are visited by descending score (ties keep input order) and
    greedily claim the unclaimed ground truth of highest IoU in their own
    video, requiring IoU >= thr. AP integrates the precision envelope over
    recall.
    """
    order = sel[np.argsort(-det_scores[sel], kind="stable")]
    claimed = {v: np.zeros(len(g), dtype=bool) for v, g in gt_by_video.items()}
    tp = np.zeros(len(order))
    for rank, d in enumerate(order):
        v = det_videos[d]
        if v not in gt_by_video or len(gt_by_video[v]) == 0:
            continue
        ious = iou_matrix(det_intervals[d:d + 1], gt_by_video[v])[0]
        ious[claimed[v]] = -1.0
        best = int(np.argmax(ious))
        if ious[best] >= thr:
            claimed[v][best] = True
            tp[rank] = 1.0
    cum_tp = np.cumsum(tp)
    recall = cum_tp / n_gt
    precision = cum_tp / np.arange(1, len(order) + 1)
    # envelope: best precision at any recall >= r
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    ap, prev_r = 0.0, 0.0
    for r, p in zip(recall, envelope):
        ap += (r - prev_r) * p
        prev_r = r
    return ap


def map_at_iou(det_intervals, det_scores, det_classes, det_videos,
               gt_intervals, gt_classes, gt_videos,
               thresholds=(0.1, 0.2, 0.3, 0.4, 0.5)) -> dict:
    """Mean average precision over IoU thresholds and classes.

    Matching is confined to same (video, class) groups. A class's AP at a
    threshold averages over nothing but its own ground truth; classes
    without any ground truth are skipped; the reported value per threshold
    is the mean over classes, and "mean" averages the thresholds. All
    values are percentages.
    """
    det_intervals = np.asarray(det_intervals, dtype=np.float64).reshape(-1, 2)
    det_scores = np.asarray(det_scores, dtype=np.float64)
    det_classes = np.asarray(det_classes, dtype=np.intp)
    det_videos = np.asarray(det_videos)
    gt_intervals = np.asarray(gt_intervals, dtype=np.float64).reshape(-1, 2)
    gt_classes = np.asarray(gt_classes, dtype=np.intp)
    gt_videos = np.asarray(gt_videos)

    classes = sorted(set(gt_classes.tolist()))
    per_thr: dict[float, float] = {}
    for thr in thresholds:
        aps = []
        for cls in classes:
            # AP per class pools videos: rank all detections of the class
            # together but only match within their own video.
            cls_gt = {v: gt_intervals[(gt_classes == cls) & (gt_videos == v)]
                      for v in set(gt_videos[gt_classes == cls].tolist())}
            n_gt = sum(len(g) for g in cls_gt.values())
            sel = np.nonzero(det_classes == cls)[0]
            if len(sel) == 0:
                aps.append(0.0)
                continue
            aps.append(_class_ap(sel, det_intervals, det_scores, det_videos,
                                 cls_gt, n_gt, thr))
        per_thr[float(thr)] = 100.0 * float(np.mean(aps)) if aps else 0.0
    return {"per_threshold": per_thr,
            "mean": float(np.mean(list(per_thr.values()))) if per_thr else 0.0}


def recall_at_k(det_intervals, det_scores, det_classes, det_videos,
                gt_intervals, gt_classes, gt_videos,
                k: int, iou_thr: float = 0.5) -> float:
    """Percentage of ground truths hit by a top-k prediction.

    Detections are grouped per (video, class) and cut to the k highest
    scores; a ground truth counts as recalled when any of those overlaps
    it with IoU >= iou_thr.
    """
    det_intervals = np.asarray(det_intervals, dtype=np.float64).reshape(-1, 2)
    det_scores = np.asarray(det_scores, dtype=np.float64)
    det_classes = np.asarray(det_classes, dtype=np.intp)
    det_videos = np.asarray(det_videos)
    gt_intervals = np.asarray(gt_intervals, dtype=np.float64).reshape(-1, 2)
    gt_classes = np.asarray(gt_classes, dtype=np.intp)
    gt_videos = np.asarray(gt_videos)

    det_groups = _group(det_intervals, det_videos, det_classes)
    recalled = 0
    for i in range(len(gt_intervals)):
        key = (gt_videos[i], gt_classes[i])
        sel = det_groups.get(key, [])
        if sel:
            sel = np.asarray(sel)
            top = sel[np.argsort(-det_scores[sel], kind="stable")][:k]
            ious = iou_matrix(gt_intervals[i:i + 1], det_intervals[top])[0]
            if (ious >= iou_thr).any():
                recalled += 1
    total = len(gt_intervals)
    return 100.0 * recalled / total if total else 0.0
