"""Metric tests against independent oracles.

The edit-distance oracle is a memoized recursion (different algorithm
from the rolling-row implementation), the suppression oracle a separate
greedy rewrite, and the detection metrics are pinned on hand-worked
examples plus exact best/worst cases.

The detection metrics score a whole evaluation set at once (one padded
IoU block over every (class, video) pair, one pass for every recall k)
and ``mq_decode`` decodes with one mask. Their per-pair and
per-detection loop forms are kept below as reference implementations
(``*_loop``), and property tests require the two to agree byte for byte
(hypothesis; the property tests skip when it is not installed).
"""

from functools import lru_cache

import numpy as np
import pytest

from tgk.metrics import (
    edit_distance,
    iou_matrix,
    levenshtein,
    localization_error,
    map_at_iou,
    recall_at_k,
    soft_nms,
    top1_accuracy,
)
from tgk.tasks import mq_decode

from oracle_ops import iou_1d


def levenshtein_oracle(a, b):
    a, b = tuple(a), tuple(b)

    @lru_cache(maxsize=None)
    def rec(i, j):
        if i == 0:
            return j
        if j == 0:
            return i
        return min(rec(i - 1, j) + 1, rec(i, j - 1) + 1,
                   rec(i - 1, j - 1) + (a[i - 1] != b[j - 1]))

    return rec(len(a), len(b))


def soft_nms_oracle(intervals, scores, sigma=2.0, floor=1e-3):
    items = [{"i": i, "s": float(s)} for i, s in enumerate(scores)
             if s >= floor]
    kept = []
    while items:
        items.sort(key=lambda d: (-d["s"], intervals[d["i"]][0], d["i"]))
        best = items.pop(0)
        kept.append((best["i"], best["s"]))
        nxt = []
        for d in items:
            ov = iou_1d(intervals[best["i"]], intervals[d["i"]])
            d["s"] *= float(np.exp(-(ov * ov) / sigma))
            if d["s"] >= floor:
                nxt.append(d)
        items = nxt
    idx = np.array([i for i, _ in kept], dtype=np.intp)
    sc = np.array([s for _, s in kept])
    return idx, sc


# ---------------------------------------------------------------------------
# loop reference implementations of the detection metrics and mq_decode
# ---------------------------------------------------------------------------


def soft_nms_loop(intervals, scores, sigma=2.0, floor=1e-3):
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


def group_loop(values, *keys):
    out = {}
    for i in range(len(values)):
        out.setdefault(tuple(k[i] for k in keys), []).append(i)
    return out


def class_ap_loop(sel, det_intervals, det_scores, det_videos, gt_by_video,
                  n_gt, thr):
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
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    ap, prev_r = 0.0, 0.0
    for r, p in zip(recall, envelope):
        ap += (r - prev_r) * p
        prev_r = r
    return ap


def map_at_iou_loop(det_intervals, det_scores, det_classes, det_videos,
                    gt_intervals, gt_classes, gt_videos,
                    thresholds=(0.1, 0.2, 0.3, 0.4, 0.5)):
    det_intervals = np.asarray(det_intervals, dtype=np.float64).reshape(-1, 2)
    det_scores = np.asarray(det_scores, dtype=np.float64)
    det_classes = np.asarray(det_classes, dtype=np.intp)
    det_videos = np.asarray(det_videos)
    gt_intervals = np.asarray(gt_intervals, dtype=np.float64).reshape(-1, 2)
    gt_classes = np.asarray(gt_classes, dtype=np.intp)
    gt_videos = np.asarray(gt_videos)

    classes = sorted(set(gt_classes.tolist()))
    per_thr = {}
    for thr in thresholds:
        aps = []
        for cls in classes:
            cls_gt = {v: gt_intervals[(gt_classes == cls) & (gt_videos == v)]
                      for v in set(gt_videos[gt_classes == cls].tolist())}
            n_gt = sum(len(g) for g in cls_gt.values())
            sel = np.nonzero(det_classes == cls)[0]
            if len(sel) == 0:
                aps.append(0.0)
                continue
            aps.append(class_ap_loop(sel, det_intervals, det_scores,
                                     det_videos, cls_gt, n_gt, thr))
        per_thr[float(thr)] = 100.0 * float(np.mean(aps)) if aps else 0.0
    return {"per_threshold": per_thr,
            "mean": float(np.mean(list(per_thr.values()))) if per_thr else 0.0}


def recall_at_k_loop(det_intervals, det_scores, det_classes, det_videos,
                     gt_intervals, gt_classes, gt_videos, k, iou_thr=0.5):
    det_intervals = np.asarray(det_intervals, dtype=np.float64).reshape(-1, 2)
    det_scores = np.asarray(det_scores, dtype=np.float64)
    det_classes = np.asarray(det_classes, dtype=np.intp)
    det_videos = np.asarray(det_videos)
    gt_intervals = np.asarray(gt_intervals, dtype=np.float64).reshape(-1, 2)
    gt_classes = np.asarray(gt_classes, dtype=np.intp)
    gt_videos = np.asarray(gt_videos)

    det_groups = group_loop(det_intervals, det_videos, det_classes)
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


def mq_decode_loop(positions_s, scores, offsets_s, extent_s, min_score=0.0):
    positions_s = np.asarray(positions_s, dtype=np.float64)
    scores = np.asarray(scores, dtype=np.float64)
    offsets_s = np.asarray(offsets_s, dtype=np.float64)
    lo, hi = float(extent_s[0]), float(extent_s[1])
    n, c = scores.shape
    starts = np.clip(positions_s - offsets_s[:, 0], lo, hi)
    ends = np.clip(positions_s + offsets_s[:, 1], lo, hi)
    ivals, svals, cvals = [], [], []
    for i in range(n):
        if ends[i] <= starts[i]:
            continue
        for cls in range(c):
            if scores[i, cls] < min_score:
                continue
            ivals.append((starts[i], ends[i]))
            svals.append(scores[i, cls])
            cvals.append(cls)
    if not ivals:
        return (np.empty((0, 2)), np.empty(0), np.empty(0, dtype=np.intp))
    return (np.asarray(ivals, dtype=np.float64),
            np.asarray(svals, dtype=np.float64),
            np.asarray(cvals, dtype=np.intp))


def same_arrays(got, want):
    """Equal dtype, shape and bytes, element by element of two tuples."""
    return all(g.dtype == w.dtype and g.shape == w.shape
               and g.tobytes() == w.tobytes() for g, w in zip(got, want))


# ---------------------------------------------------------------------------
# classification and sequence metrics
# ---------------------------------------------------------------------------


def test_top1_accuracy():
    assert top1_accuracy([1, 2, 3, 4], [1, 0, 3, 0]) == 50.0
    assert top1_accuracy([5], [5]) == 100.0
    with pytest.raises(ValueError):
        top1_accuracy([1, 2], [1])


def test_levenshtein_known_cases():
    assert levenshtein("kitten", "sitting") == 3
    assert levenshtein("", "abc") == 3
    assert levenshtein("abc", "") == 3
    assert levenshtein("abc", "abc") == 0
    assert levenshtein([1, 2, 3], [1, 3]) == 1


def test_levenshtein_random_against_memoized_recursion():
    rng = np.random.default_rng(0)
    for _ in range(60):
        a = rng.integers(0, 4, size=rng.integers(0, 10)).tolist()
        b = rng.integers(0, 4, size=rng.integers(1, 10)).tolist()
        assert levenshtein(a, b) == levenshtein_oracle(a, b)


def test_edit_distance_best_of_candidates():
    target = [1, 2, 3, 4]
    candidates = [[1, 2, 3, 4], [0, 0, 0, 0]]
    assert edit_distance(candidates, target) == 0.0
    candidates = [[1, 2, 0, 4], [0, 0, 0, 0]]
    assert edit_distance(candidates, target) == 0.25
    with pytest.raises(ValueError):
        edit_distance([], target)


def test_localization_error():
    got = localization_error([1.0, 2.0, 5.0], [1.5, 2.0, 3.0])
    assert abs(got - (0.5 + 0.0 + 2.0) / 3.0) < 1e-12
    with pytest.raises(ValueError):
        localization_error([1.0], [1.0, 2.0])


# ---------------------------------------------------------------------------
# interval overlap
# ---------------------------------------------------------------------------


def test_iou_1d_cases():
    assert iou_1d((0.0, 2.0), (1.0, 3.0)) == 1.0 / 3.0
    assert iou_1d((0.0, 1.0), (2.0, 3.0)) == 0.0
    assert iou_1d((0.0, 2.0), (0.0, 2.0)) == 1.0
    assert iou_1d((1.0, 1.0), (1.0, 1.0)) == 0.0  # degenerate union


def test_iou_matrix_matches_scalar():
    rng = np.random.default_rng(1)
    a = np.sort(rng.uniform(0, 10, size=(5, 2)), axis=1)
    b = np.sort(rng.uniform(0, 10, size=(7, 2)), axis=1)
    m = iou_matrix(a, b)
    assert m.shape == (5, 7)
    for i in range(5):
        for j in range(7):
            assert abs(m[i, j] - iou_1d(a[i], b[j])) < 1e-12


# ---------------------------------------------------------------------------
# soft suppression
# ---------------------------------------------------------------------------


def test_soft_nms_matches_oracle_random():
    rng = np.random.default_rng(2)
    for _ in range(30):
        n = int(rng.integers(1, 12))
        starts = rng.uniform(0, 10, size=n)
        intervals = np.stack([starts, starts + rng.uniform(0.5, 4, size=n)], axis=1)
        scores = rng.uniform(0.0, 1.0, size=n)
        got_i, got_s = soft_nms(intervals, scores)
        exp_i, exp_s = soft_nms_oracle(intervals, scores)
        assert np.array_equal(got_i, exp_i)
        assert np.allclose(got_s, exp_s, atol=1e-12)


def test_soft_nms_disjoint_intervals_untouched():
    intervals = np.array([[0.0, 1.0], [5.0, 6.0], [10.0, 11.0]])
    scores = np.array([0.5, 0.9, 0.7])
    idx, sc = soft_nms(intervals, scores)
    assert np.array_equal(idx, [1, 2, 0])
    assert np.allclose(sc, [0.9, 0.7, 0.5], atol=1e-15)


def test_soft_nms_decays_duplicates():
    intervals = np.array([[0.0, 2.0], [0.0, 2.0]])
    scores = np.array([0.8, 0.6])
    idx, sc = soft_nms(intervals, scores, sigma=2.0)
    assert np.array_equal(idx, [0, 1])
    assert abs(sc[1] - 0.6 * np.exp(-0.5)) < 1e-12


def test_soft_nms_floor_discards():
    intervals = np.array([[0.0, 2.0], [0.0, 2.0]])
    scores = np.array([0.9, 0.0015])
    idx, _ = soft_nms(intervals, scores, sigma=0.05, floor=1e-3)
    # the duplicate decays by exp(-20), far below the floor
    assert np.array_equal(idx, [0])
    idx, _ = soft_nms(intervals, np.array([0.9, 1e-4]))
    assert np.array_equal(idx, [0])


def test_soft_nms_tie_breaks_by_start_then_order():
    intervals = np.array([[3.0, 4.0], [1.0, 2.0], [1.0, 2.0]])
    scores = np.array([0.5, 0.5, 0.5])
    idx, _ = soft_nms(intervals, scores)
    assert idx[0] == 1  # earliest start wins the tie
    assert idx[1] == 0 or idx[1] == 2


def test_soft_nms_empty():
    idx, sc = soft_nms(np.empty((0, 2)), np.empty(0))
    assert idx.size == 0 and sc.size == 0


# ---------------------------------------------------------------------------
# average precision of one class in one video
# ---------------------------------------------------------------------------


def single_class_ap(dets, scores, gt, thr):
    """map_at_iou's percentage at ``thr`` with every detection and ground
    truth in class 0 of video "a"."""
    dets = np.asarray(dets, dtype=np.float64).reshape(-1, 2)
    gt = np.asarray(gt, dtype=np.float64).reshape(-1, 2)
    out = map_at_iou(dets, scores, np.zeros(len(dets), dtype=int),
                     np.array(["a"] * len(dets)), gt,
                     np.zeros(len(gt), dtype=int), np.array(["a"] * len(gt)),
                     thresholds=(thr,))
    return out["per_threshold"][thr]


def test_average_precision_perfect_and_zero():
    gt = np.array([[0.0, 1.0], [2.0, 3.0]])
    dets = gt.copy()
    assert single_class_ap(dets, np.array([0.9, 0.8]), gt, 0.5) == 100.0
    far = np.array([[10.0, 11.0], [12.0, 13.0]])
    assert single_class_ap(far, np.array([0.9, 0.8]), gt, 0.5) == 0.0
    assert single_class_ap(np.empty((0, 2)), np.empty(0), gt, 0.5) == 0.0
    # detections of a class without ground truth are not scored at all
    out = map_at_iou(dets, np.array([0.9, 0.8]), np.array([0, 1]),
                     np.array(["a", "a"]), gt[:1], np.array([0]),
                     np.array(["a"]), thresholds=(0.5,))
    assert out["per_threshold"][0.5] == 100.0


def test_average_precision_hand_case():
    gt = np.array([[0.0, 1.0], [2.0, 3.0]])
    dets = np.array([[0.0, 1.0], [5.0, 6.0], [2.0, 3.0]])
    scores = np.array([0.9, 0.8, 0.7])
    # ranked TP, FP, TP: precision 1, 1/2, 2/3; envelope 1, 2/3, 2/3;
    # recall steps 1/2, 1/2, 1: AP = 0.5 * 1 + 0.5 * 2/3 = 5/6
    got = single_class_ap(dets, scores, gt, 0.5)
    assert abs(got - 100.0 * 5.0 / 6.0) < 1e-10


def test_average_precision_each_gt_claimed_once():
    gt = np.array([[0.0, 2.0]])
    dets = np.array([[0.0, 2.0], [0.0, 2.0]])
    scores = np.array([0.9, 0.8])
    # the second duplicate cannot re-claim: precision 1, then 1/2
    got = single_class_ap(dets, scores, gt, 0.5)
    assert got == 100.0


def test_average_precision_threshold_monotone():
    rng = np.random.default_rng(3)
    for _ in range(10):
        starts = rng.uniform(0, 10, size=4)
        gt = np.stack([starts, starts + rng.uniform(1, 3, size=4)], axis=1)
        ds = rng.uniform(0, 10, size=6)
        dets = np.stack([ds, ds + rng.uniform(1, 3, size=6)], axis=1)
        scores = rng.uniform(size=6)
        ap_lo = single_class_ap(dets, scores, gt, 0.1)
        ap_hi = single_class_ap(dets, scores, gt, 0.7)
        assert ap_hi <= ap_lo + 1e-10


# ---------------------------------------------------------------------------
# pooled detection metrics
# ---------------------------------------------------------------------------


def test_map_at_iou_perfect_is_100():
    gt = np.array([[0.0, 1.0], [3.0, 5.0], [1.0, 2.0]])
    gt_cls = np.array([0, 1, 0])
    gt_vid = np.array(["a", "a", "b"])
    out = map_at_iou(gt, np.array([0.9, 0.8, 0.7]), gt_cls, gt_vid,
                     gt, gt_cls, gt_vid)
    assert out["mean"] == 100.0
    assert set(out["per_threshold"]) == {0.1, 0.2, 0.3, 0.4, 0.5}
    assert all(v == 100.0 for v in out["per_threshold"].values())


def test_map_at_iou_class_without_detections_scores_zero():
    gt = np.array([[0.0, 1.0], [2.0, 3.0]])
    gt_cls = np.array([0, 1])
    gt_vid = np.array(["a", "a"])
    dets = np.array([[0.0, 1.0]])
    out = map_at_iou(dets, np.array([0.9]), np.array([0]), np.array(["a"]),
                     gt, gt_cls, gt_vid)
    # class 0 perfect, class 1 empty: mean of 100 and 0
    assert out["mean"] == 50.0


def test_map_at_iou_videos_do_not_cross():
    gt = np.array([[0.0, 1.0]])
    gt_cls = np.array([0])
    gt_vid = np.array(["a"])
    dets = np.array([[0.0, 1.0]])
    out = map_at_iou(dets, np.array([0.9]), np.array([0]), np.array(["b"]),
                     gt, gt_cls, gt_vid)
    assert out["mean"] == 0.0


def test_map_at_iou_fp_in_other_video_still_costs_precision():
    # pooled ranking: a higher-scored miss in video b outranks the hit in a
    gt = np.array([[0.0, 1.0]])
    dets = np.array([[4.0, 5.0], [0.0, 1.0]])
    out = map_at_iou(dets, np.array([0.9, 0.8]), np.array([0, 0]),
                     np.array(["b", "a"]), gt, np.array([0]), np.array(["a"]))
    # ranked FP then TP: envelope precision at full recall is 1/2
    assert abs(out["mean"] - 50.0) < 1e-9


def test_recall_at_k_respects_cutoff():
    gt = np.array([[0.0, 2.0]])
    gt_cls = np.array([0])
    gt_vid = np.array(["a"])
    dets = np.array([[5.0, 7.0], [0.0, 2.0]])
    det_cls = np.array([0, 0])
    det_vid = np.array(["a", "a"])
    scores = np.array([0.9, 0.8])  # the hit ranks second
    hits = recall_at_k(dets, scores, det_cls, det_vid, gt, gt_cls, gt_vid,
                       ks=(1, 2))
    assert hits == {1: 0.0, 2: 100.0}


def test_recall_at_k_groups_by_video_and_class():
    gt = np.array([[0.0, 2.0], [0.0, 2.0]])
    gt_cls = np.array([0, 1])
    gt_vid = np.array(["a", "a"])
    dets = np.array([[0.0, 2.0]])
    out = recall_at_k(dets, np.array([0.9]), np.array([0]), np.array(["a"]),
                      gt, gt_cls, gt_vid, ks=(5,))
    assert out == {5: 50.0}
    assert recall_at_k(np.empty((0, 2)), np.empty(0), np.empty(0, dtype=int),
                       np.empty(0, dtype=str), gt, gt_cls, gt_vid,
                       ks=(5,)) == {5: 0.0}


def test_recall_at_k_needs_sufficient_iou():
    gt = np.array([[0.0, 10.0]])
    dets = np.array([[0.0, 3.0]])  # IoU 0.3
    args = (dets, np.array([0.9]), np.array([0]), np.array(["a"]),
            gt, np.array([0]), np.array(["a"]))
    assert recall_at_k(*args, ks=(1,), iou_thr=0.5) == {1: 0.0}
    assert recall_at_k(*args, ks=(1,), iou_thr=0.25) == {1: 100.0}


def test_recall_at_k_rejects_negative_k():
    gt = np.array([[0.0, 2.0]])
    args = (gt, np.array([0.9]), np.array([0]), np.array(["a"]),
            gt, np.array([0]), np.array(["a"]))
    with pytest.raises(ValueError, match="k=-1"):
        recall_at_k(*args, ks=(1, -1))


def small_detection_problem():
    """Keyword arguments of a two-video, two-class detection problem."""
    return dict(det_intervals=np.array([[0.0, 1.0], [2.0, 3.0], [5.0, 6.0]]),
                det_scores=np.array([0.9, 0.8, 0.7]),
                det_classes=np.array([0, 0, 1]),
                det_videos=np.array(["a", "a", "b"]),
                gt_intervals=np.array([[0.0, 1.0], [5.0, 6.0]]),
                gt_classes=np.array([0, 1]), gt_videos=np.array(["a", "b"]))


@pytest.mark.parametrize("metric", [map_at_iou, recall_at_k])
@pytest.mark.parametrize("name", ["det_intervals", "det_scores", "det_classes",
                                  "det_videos", "gt_intervals", "gt_classes",
                                  "gt_videos"])
def test_detection_metrics_reject_a_short_parallel_array(metric, name):
    args = small_detection_problem()
    args[name] = args[name][:-1]
    with pytest.raises(ValueError, match=name):
        metric(**args)


@pytest.mark.parametrize("metric", [map_at_iou, recall_at_k])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_detection_metrics_reject_a_non_finite_score(metric, bad):
    args = small_detection_problem()
    args["det_scores"] = np.array([0.9, bad, 0.7])
    with pytest.raises(ValueError, match=r"det_scores\[1\]"):
        metric(**args)


@pytest.mark.parametrize("metric", [map_at_iou, recall_at_k])
@pytest.mark.parametrize("name", ["det_intervals", "gt_intervals"])
@pytest.mark.parametrize("row", [[np.nan, 1.0], [0.0, np.inf],
                                 [-np.inf, 6.0]])
def test_detection_metrics_reject_a_non_finite_interval(metric, name, row):
    args = small_detection_problem()
    args[name] = args[name].copy()
    args[name][1] = row
    with pytest.raises(ValueError, match=rf"{name}\[1\] .* not finite"):
        metric(**args)


@pytest.mark.parametrize("metric", [map_at_iou, recall_at_k])
@pytest.mark.parametrize("name", ["det_intervals", "gt_intervals"])
def test_detection_metrics_reject_an_interval_ending_before_it_starts(
        metric, name):
    args = small_detection_problem()
    args[name] = args[name].copy()
    args[name][-1] = [6.0, 5.0]
    args[name][0] = [2.0, 1.0]
    with pytest.raises(ValueError, match=rf"{name}\[0\] .* end before"):
        metric(**args)


def test_detection_metrics_accept_zero_length_intervals():
    args = small_detection_problem()
    args["det_intervals"] = args["det_intervals"].copy()
    args["det_intervals"][1] = [2.5, 2.5]
    map_at_iou(**args)
    recall_at_k(**args)


# ---------------------------------------------------------------------------
# matrix forms against the loop references, byte for byte
# ---------------------------------------------------------------------------

# a coarse grid makes equal starts, equal scores, zero-length and identical
# intervals common
GRID_STARTS = (0.0, 0.5, 1.0, 1.5, 2.0, 3.0)
GRID_LENGTHS = (0.0, 0.5, 1.0, 2.0)
GRID_SCORES = (0.0, 5e-4, 1e-3, 0.25, 0.5, 0.9)


def strategies():
    """hypothesis' ``given``, ``settings`` and the strategies module; the
    calling test is skipped when hypothesis is not installed.

    Shrinking is off: it can run for minutes on a failure, and with
    derandomized generation a failing test still reports the same
    generated input every run."""
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    settings = hyp.settings(max_examples=150, deadline=None,
                            derandomize=True, database=None,
                            phases=[p for p in hyp.Phase
                                    if p is not hyp.Phase.shrink])
    return hyp.given, settings, st


def interval_lists(st, size):
    start = st.one_of(st.sampled_from(GRID_STARTS), st.floats(0.0, 10.0))
    length = st.one_of(st.sampled_from(GRID_LENGTHS), st.floats(0.0, 4.0))
    return st.lists(st.tuples(start, length), min_size=size, max_size=size)


def score_lists(st, size):
    return st.lists(st.one_of(st.sampled_from(GRID_SCORES), st.floats(0.0, 1.0)),
                    min_size=size, max_size=size)


def as_intervals(rows):
    return np.array([(s, s + n) for s, n in rows],
                    dtype=np.float64).reshape(-1, 2)


def detection_problems(st, max_dets=60, max_gt=16):
    """(det intervals, scores, classes, videos, gt intervals, classes,
    videos) over up to 6 videos and 5 classes, ids as ints or strings."""

    @st.composite
    def build(draw):
        n = draw(st.integers(0, max_dets))
        g = draw(st.integers(0, max_gt))
        videos = draw(st.integers(1, 6))
        classes = draw(st.integers(1, 5))
        det_i = as_intervals(draw(interval_lists(st, n)))
        det_s = np.array(draw(score_lists(st, n)), dtype=np.float64)
        gt_i = as_intervals(draw(interval_lists(st, g)))
        ids = st.integers(0, classes - 1)
        vids = st.integers(0, videos - 1)
        det_c = np.array(draw(st.lists(ids, min_size=n, max_size=n)), dtype=int)
        gt_c = np.array(draw(st.lists(ids, min_size=g, max_size=g)), dtype=int)
        det_v = draw(st.lists(vids, min_size=n, max_size=n))
        gt_v = draw(st.lists(vids, min_size=g, max_size=g))
        if draw(st.booleans()):
            det_v = [f"v{v}" for v in det_v]
            gt_v = [f"v{v}" for v in gt_v]
        return (det_i, det_s, det_c, np.array(det_v), gt_i, gt_c,
                np.array(gt_v))

    return build()


def test_soft_nms_equals_loop_bytes():
    given, settings, st = strategies()

    @settings
    @given(st.integers(0, 40).flatmap(lambda n: st.tuples(
               interval_lists(st, n), score_lists(st, n))),
           st.sampled_from((2.0, 0.5, 0.05)), st.sampled_from((1e-3, 0.3)))
    def check(problem, sigma, floor):
        rows, scores = problem
        intervals, scores = as_intervals(rows), np.array(scores, dtype=np.float64)
        assert same_arrays(soft_nms(intervals, scores, sigma, floor),
                           soft_nms_loop(intervals, scores, sigma, floor))

    check()


def test_soft_nms_groups_equal_per_group_loop_bytes():
    given, settings, st = strategies()

    @st.composite
    def grouped(draw):
        """Rows of up to 5 groups of 1 to 40 rows each, under distinct
        unsorted keys with gaps, interleaved in input order."""
        keys = draw(st.lists(st.integers(-50, 50), max_size=5, unique=True))
        sizes = [draw(st.integers(1, 40)) for _ in keys]
        n = sum(sizes)
        rows, scores = draw(interval_lists(st, n)), draw(score_lists(st, n))
        order = draw(st.permutations(range(n)))
        groups = np.repeat(np.array(keys, dtype=int), sizes)[list(order)]
        return (as_intervals(rows), np.array(scores, dtype=np.float64),
                groups)

    @settings
    @given(grouped(), st.sampled_from((2.0, 0.5, 0.05)),
           st.sampled_from((1e-3, 0.3)))
    def check(problem, sigma, floor):
        intervals, scores, groups = problem
        kept, decayed = [np.empty(0, dtype=np.intp)], [np.empty(0)]
        for key in np.unique(groups):
            sel = np.nonzero(groups == key)[0]
            idx, sc = soft_nms_loop(intervals[sel], scores[sel], sigma, floor)
            kept.append(sel[idx])
            decayed.append(sc)
        assert same_arrays(
            soft_nms(intervals, scores, sigma, floor, groups=groups),
            (np.concatenate(kept), np.concatenate(decayed)))
        assert same_arrays(
            soft_nms(intervals, scores, sigma, floor),
            soft_nms(intervals, scores, sigma, floor,
                     groups=np.full(len(scores), 7)))

    check()
    idx, sc = soft_nms(np.empty((0, 2)), np.empty(0),
                       groups=np.empty(0, dtype=int))
    assert (idx.dtype, idx.shape, sc.dtype, sc.shape) == (
        np.intp, (0,), np.float64, (0,))


def test_map_at_iou_equals_loop_exactly():
    given, settings, st = strategies()

    @settings
    @given(detection_problems(st),
           st.sampled_from(((0.1, 0.2, 0.3, 0.4, 0.5), (0.5,),
                            (0.0, 0.7, 1.0), ())))
    def check(problem, thresholds):
        got = map_at_iou(*problem, thresholds=thresholds)
        assert got == map_at_iou_loop(*problem, thresholds=thresholds)

    check()


def test_recall_at_k_equals_loop_exactly():
    given, settings, st = strategies()

    @settings
    @given(detection_problems(st), st.integers(0, 6),
           st.sampled_from((0.5, 0.25, 0.0, 1.0)))
    def check(problem, k, iou_thr):
        got = recall_at_k(*problem, ks=(k, 6 - k), iou_thr=iou_thr)
        for kk in (k, 6 - k):
            assert got[kk] == recall_at_k_loop(*problem, k=kk, iou_thr=iou_thr)

    check()


def evaluation_problem(seed, string_ids):
    """A seeded problem at evaluation scale: 12 videos x 8 classes with up
    to 60 detections per (class, video) pair (one pair has exactly 60) on
    coarse grids, so scores tie and intervals repeat, in shuffled input
    order, plus ground truth in a 13th video that has no detections."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(0, 61, size=(12, 8))
    sizes[3, 5] = 60
    det_v = np.repeat(np.repeat(np.arange(12), 8), sizes.ravel())
    det_c = np.repeat(np.tile(np.arange(8), 12), sizes.ravel())
    n = len(det_v)
    starts = 0.5 * rng.integers(0, 60, size=n)
    det_i = np.stack([starts, starts + rng.choice(GRID_LENGTHS + (4.0,), n)],
                     axis=1)
    det_s = rng.integers(0, 11, size=n) / 10.0
    gt_sizes = rng.integers(0, 5, size=(13, 8))
    gt_v = np.repeat(np.repeat(np.arange(13), 8), gt_sizes.ravel())
    gt_c = np.repeat(np.tile(np.arange(8), 13), gt_sizes.ravel())
    g = len(gt_v)
    gt_starts = 0.5 * rng.integers(0, 60, size=g)
    gt_i = np.stack(
        [gt_starts, gt_starts + rng.choice((0.5, 1.0, 2.0, 4.0), g)], axis=1)
    perm = rng.permutation(n)
    det_i, det_s, det_c, det_v = (
        a[perm] for a in (det_i, det_s, det_c, det_v))
    if string_ids:
        det_v = np.array([f"v{v}" for v in det_v])
        gt_v = np.array([f"v{v}" for v in gt_v])
    return det_i, det_s, det_c, det_v, gt_i, gt_c, gt_v


@pytest.mark.parametrize("string_ids", [False, True])
def test_detection_metrics_at_evaluation_scale_equal_loops(string_ids):
    """The property tests draw at most 60 detections in all, so they never
    build a padded block this wide."""
    problem = evaluation_problem(1901, string_ids)
    for thresholds in ((), (0.5,), (0.0, 0.7, 1.0)):
        assert (map_at_iou(*problem, thresholds=thresholds)
                == map_at_iou_loop(*problem, thresholds=thresholds))
    ks = (0, 1, 5, 60, 61)  # 61 ranks past the widest group
    assert recall_at_k(*problem, ks=ks) == {
        k: recall_at_k_loop(*problem, k=k) for k in ks}


def test_mq_decode_equals_loop_bytes():
    given, settings, st = strategies()

    @st.composite
    def heads(draw):
        n = draw(st.integers(0, 24))
        c = draw(st.integers(1, 5))
        grid = st.sampled_from((0.0, 0.5, 1.0, 4.0))
        positions = draw(st.lists(st.one_of(grid, st.floats(-2.0, 12.0)),
                                  min_size=n, max_size=n))
        offsets = draw(st.lists(st.one_of(grid, st.floats(0.0, 6.0)),
                                min_size=2 * n, max_size=2 * n))
        scores = draw(score_lists(st, n * c))
        return (np.array(positions, dtype=np.float64),
                np.array(scores, dtype=np.float64).reshape(n, c),
                np.array(offsets, dtype=np.float64).reshape(n, 2))

    @settings
    @given(heads(), st.sampled_from(((0.0, 10.0), (1.0, 4.0), (0.0, 0.0))),
           st.sampled_from((0.0, 0.05, 0.5)))
    def check(head, extent, min_score):
        positions, scores, offsets = head
        assert same_arrays(
            mq_decode(positions, scores, offsets, extent, min_score),
            mq_decode_loop(positions, scores, offsets, extent, min_score))

    check()


def test_detection_metrics_on_empty_inputs_equal_loops():
    none = np.empty((0, 2))
    assert same_arrays(soft_nms(none, np.empty(0)),
                       soft_nms_loop(none, np.empty(0)))
    gt = np.array([[0.0, 1.0], [1.0, 1.0]])
    problems = [
        # no detections, as evaluation pools them: plain empty lists
        ([], [], [], [], gt, np.array([0, 1]), np.array(["a", "b"])),
        # no ground truth
        (gt, np.array([0.5, 0.5]), np.array([0, 0]), np.array(["a", "a"]),
         none, np.empty(0, dtype=int), np.empty(0, dtype=str)),
        # neither
        ([], [], [], [], none, np.empty(0, dtype=int), []),
    ]
    for problem in problems:
        assert map_at_iou(*problem) == map_at_iou_loop(*problem)
        got = recall_at_k(*problem)
        assert got == {k: recall_at_k_loop(*problem, k=k) for k in (1, 5)}
    assert same_arrays(
        mq_decode(np.empty(0), np.empty((0, 3)), np.empty((0, 2)), (0.0, 5.0)),
        mq_decode_loop(np.empty(0), np.empty((0, 3)), np.empty((0, 2)),
                       (0.0, 5.0)))
