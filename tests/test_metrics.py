"""Metric tests against independent oracles.

The edit-distance oracle is a memoized recursion (different algorithm
from the rolling-row implementation), the suppression oracle a separate
greedy rewrite, and the detection metrics are pinned on hand-worked
examples plus exact best/worst cases.
"""

from functools import lru_cache

import numpy as np
import pytest

from tgk.metrics import (
    edit_distance,
    iou_1d,
    iou_matrix,
    levenshtein,
    localization_error,
    map_at_iou,
    recall_at_k,
    soft_nms,
    top1_accuracy,
)


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
    hit1 = recall_at_k(dets, scores, det_cls, det_vid, gt, gt_cls, gt_vid, k=1)
    hit2 = recall_at_k(dets, scores, det_cls, det_vid, gt, gt_cls, gt_vid, k=2)
    assert hit1 == 0.0
    assert hit2 == 100.0


def test_recall_at_k_groups_by_video_and_class():
    gt = np.array([[0.0, 2.0], [0.0, 2.0]])
    gt_cls = np.array([0, 1])
    gt_vid = np.array(["a", "a"])
    dets = np.array([[0.0, 2.0]])
    out = recall_at_k(dets, np.array([0.9]), np.array([0]), np.array(["a"]),
                      gt, gt_cls, gt_vid, k=5)
    assert out == 50.0
    assert recall_at_k(np.empty((0, 2)), np.empty(0), np.empty(0, dtype=int),
                       np.empty(0, dtype=str), gt, gt_cls, gt_vid, k=5) == 0.0


def test_recall_at_k_needs_sufficient_iou():
    gt = np.array([[0.0, 10.0]])
    dets = np.array([[0.0, 3.0]])  # IoU 0.3
    args = (dets, np.array([0.9]), np.array([0]), np.array(["a"]),
            gt, np.array([0]), np.array(["a"]))
    assert recall_at_k(*args, k=1, iou_thr=0.5) == 0.0
    assert recall_at_k(*args, k=1, iou_thr=0.25) == 100.0
