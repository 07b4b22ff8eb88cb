"""Evaluation metrics: classification, sequence, and interval detection.

Detection metrics work on flat parallel arrays (interval, score, class,
video id per detection) so callers can pool predictions from many videos
and stages. All interval math is 1-D [start, end] in seconds.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "top1_accuracy", "levenshtein", "edit_distance", "localization_error",
    "iou_matrix", "soft_nms", "map_at_iou",
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
    # survivors are sorted by key: a group starts where the key changes
    first = np.ones(len(order), dtype=bool)
    first[1:] = key[order[1:]] != key[order[:-1]]
    start = np.flatnonzero(first)
    row_group = np.cumsum(first) - 1
    pos = np.arange(len(order)) - start[row_group]
    size = np.diff(start, append=len(order))
    # slot[g, j]: input index of group g's j-th survivor, -1 past its end
    slot = np.full((len(start), size.max(initial=0)), -1, dtype=np.intp)
    slot[row_group, pos] = order
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


def _same_length(**arrays) -> None:
    """Raise ValueError naming the first array whose length is not the
    first array's."""
    (first, n), *rest = ((name, len(a)) for name, a in arrays.items())
    for name, m in rest:
        if m != n:
            raise ValueError(f"{name} has {m} rows, {first} has {n}")


def _detection_inputs(det_intervals, det_scores, det_classes, det_videos,
                      gt_intervals, gt_classes, gt_videos):
    """Detections and ground truth as arrays: intervals (K, 2) float,
    scores float, classes int, and video ids as integer codes, equal ids
    sharing one code; a ground truth video without detections gets -1.

    Raises ValueError naming the array when the detection arrays or the
    ground truth arrays differ in length, when a score is not finite, or,
    naming the row, at the first interval of either array that is not
    finite or ends before it starts.
    """
    det_intervals = np.asarray(det_intervals, dtype=np.float64).reshape(-1, 2)
    det_scores = np.asarray(det_scores, dtype=np.float64)
    det_classes = np.asarray(det_classes, dtype=np.intp)
    det_videos = np.asarray(det_videos)
    gt_intervals = np.asarray(gt_intervals, dtype=np.float64).reshape(-1, 2)
    gt_classes = np.asarray(gt_classes, dtype=np.intp)
    gt_videos = np.asarray(gt_videos)
    _same_length(det_intervals=det_intervals, det_scores=det_scores,
                 det_classes=det_classes, det_videos=det_videos)
    _same_length(gt_intervals=gt_intervals, gt_classes=gt_classes,
                 gt_videos=gt_videos)
    bad = np.flatnonzero(~np.isfinite(det_scores))
    if len(bad):
        raise ValueError(f"det_scores[{bad[0]}] is {det_scores[bad[0]]}, "
                         "not finite")
    for name, ivals in (("det_intervals", det_intervals),
                        ("gt_intervals", gt_intervals)):
        bad = np.flatnonzero(~np.isfinite(ivals).all(axis=1))
        if len(bad):
            raise ValueError(f"{name}[{bad[0]}] is {ivals[bad[0]].tolist()}, "
                             "not finite")
        bad = np.flatnonzero(ivals[:, 1] < ivals[:, 0])
        if len(bad):
            raise ValueError(f"{name}[{bad[0]}] is {ivals[bad[0]].tolist()}, "
                             "its end before its start")
    names, det_vid = np.unique(det_videos, return_inverse=True)
    code = {v: i for i, v in enumerate(names.tolist())}
    gt_names, gt_inv = np.unique(gt_videos, return_inverse=True)
    gt_codes = np.array([code.get(v, -1) for v in gt_names.tolist()],
                        dtype=np.intp)
    return (det_intervals, det_scores, det_classes, det_vid, gt_intervals,
            gt_classes, gt_codes[gt_inv])


def _slots(group: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row's position among the earlier rows of its group, for groups
    0..n-1, and each group's row count."""
    counts = np.bincount(group, minlength=n)
    slot = np.empty(len(group), dtype=np.intp)
    slot[np.argsort(group, kind="stable")] = (
        np.arange(len(group)) - np.repeat(np.cumsum(counts) - counts, counts))
    return slot, counts


def _envelope_ap(tp: np.ndarray, n_gt: np.ndarray) -> np.ndarray:
    """All-point interpolated AP per row of ranked 0/1 hits, over n_gt
    ground truths per row: the precision envelope integrated over recall."""
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
    claims the unclaimed ground truth of highest IoU in its own video (the
    first on ties) when that IoU reaches the threshold. All (class, video)
    pairs are matched at once on one padded (pair, row, gt) IoU block, one
    row position per iteration.
    """
    (det_intervals, det_scores, det_classes, det_vid, gt_intervals,
     gt_classes, gt_vid) = _detection_inputs(
        det_intervals, det_scores, det_classes, det_videos, gt_intervals,
        gt_classes, gt_videos)
    thr = np.asarray(thresholds, dtype=np.float64)
    classes, cls = np.unique(np.concatenate([gt_classes, det_classes]),
                             return_inverse=True)
    gt_cls, det_cls = cls[:len(gt_classes)], cls[len(gt_classes):]
    # ranked by class, then descending score, ties in input order
    order = np.lexsort((-det_scores, det_cls))
    rank, per_class = _slots(det_cls[order], len(classes))
    # padded detections and ground truth per (class, video) pair with both
    n_vid = det_vid.max(initial=-1) + 1
    seen = gt_vid >= 0
    pairs, gt_pair = np.unique(gt_cls[seen] * n_vid + gt_vid[seen],
                               return_inverse=True)
    key = (det_cls * n_vid + det_vid)[order]
    pair = np.searchsorted(pairs, key)
    mine = np.append(pairs, -1)[pair] == key  # no key is -1
    pair = pair[mine]
    row, per_pair = _slots(pair, len(pairs))
    col, gt_per_pair = _slots(gt_pair, len(pairs))
    d = np.zeros((len(pairs), per_pair.max(initial=0), 2))
    d[pair, row] = det_intervals[order[mine]]
    g = np.zeros((len(pairs), gt_per_pair.max(initial=0), 2))
    g[gt_pair, col] = gt_intervals[seen]
    ious = _iou(d[:, :, None, 0], d[:, :, None, 1],
                g[:, None, :, 0], g[:, None, :, 1])
    # a pad gt column starts claimed, so it reads -1 as a claimed one does
    claimed = np.repeat(np.arange(g.shape[1]) >= gt_per_pair[:, None, None],
                        len(thr), axis=1)
    first_col = g.shape[1] * np.arange(len(pairs) * len(thr)).reshape(
        len(pairs), len(thr))
    hits = np.zeros((len(pairs), d.shape[1], len(thr)))
    for j in range(d.shape[1]):
        masked = np.where(claimed, -1.0, ious[:, j, None, :])
        best = first_col + masked.argmax(axis=2)
        hit = np.take(masked, best) >= thr
        np.put(claimed, best[hit], True)
        hits[:, j] = hit
    tp = np.zeros((len(thr), len(classes), per_class.max(initial=1)))
    tp[:, det_cls[order[mine]], rank[mine]] = hits[pair, row].T
    scored = np.unique(gt_cls)
    n_gt = np.bincount(gt_cls)[scored, None]
    # a threshold at a time: the envelope's temporaries are (classes, rows)
    aps = [_envelope_ap(tp_t[scored], n_gt) for tp_t in tp]
    per_thr = {float(t): 100.0 * float(np.mean(row)) if len(scored) else 0.0
               for t, row in zip(thr, aps)}
    return {"per_threshold": per_thr,
            "mean": float(np.mean(list(per_thr.values()))) if per_thr else 0.0}


def recall_at_k(det_intervals, det_scores, det_classes, det_videos,
                gt_intervals, gt_classes, gt_videos,
                ks=(1, 5), iou_thr: float = 0.5) -> dict:
    """{k: percentage of ground truths hit by a top-k prediction} for
    every k in ``ks``.

    Detections are grouped per (video, class) and ranked by descending
    score (ties keep input order); a ground truth counts as recalled at k
    when one of its group's first k detections overlaps it with IoU >=
    iou_thr, so one pass finds each ground truth's first hitting rank.
    """
    for k in ks:
        if k < 0:
            raise ValueError(f"recall_at_k: k must be >= 0, got k={k}")
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
    lo, hi = (np.searchsorted(det_key[order], gt_key, side=side)
              for side in ("left", "right"))
    most = max(ks, default=0)
    depth = min(most, int((hi - lo).max(initial=0)))
    pos = lo[:, None] + np.arange(depth)
    top = order[np.where(pos < hi[:, None], pos, 0)]
    hit = (pos < hi[:, None]) & (
        _iou(gt_intervals[:, None, 0], gt_intervals[:, None, 1],
             det_intervals[top, 0], det_intervals[top, 1]) >= iou_thr)
    # a ground truth no rank hits reads ``most``, which no k exceeds
    first = np.where(hit, np.arange(depth), most).min(axis=1, initial=most)
    total = len(gt_intervals)
    return {k: 100.0 * int((first < k).sum()) / total if total else 0.0
            for k in ks}
