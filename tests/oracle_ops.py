"""Tape primitives and metrics that only the tests use.

No ``tgk`` module calls these. They build the composed chains that the
fused records replaced (``focal_loss``' clip and power, ``diou_loss``'
column picks, ``minimum`` and ``maximum``, the nine-record layer norm's
``sqrt``, the per-head ``take_cols`` blocks), and ``iou_1d`` is the
scalar IoU the detection oracles score with. Each is taped the way the
library's own primitives are, so the chains keep the bytes they had in
``tgk``.
"""

from __future__ import annotations

import numpy as np

from tgk.autodiff import ScatterPlan, Tensor, _emit, _unbroadcast, power_grad


def sqrt(a: Tensor) -> Tensor:
    out = np.sqrt(a.data)
    return _emit(out, (a,), lambda g: (g * 0.5 / out,))


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    out = np.clip(a.data, lo, hi)
    inside = (a.data > lo) & (a.data < hi)
    return _emit(out, (a,), lambda g: (g * inside,))


def power(a: Tensor, p: float) -> Tensor:
    p = float(p)
    return _emit(a.data ** p, (a,), lambda g: (power_grad(g, a.data, p),))


def minimum(a: Tensor, b: Tensor) -> Tensor:
    a_wins = a.data <= b.data  # ties route to the first argument
    return _emit(np.where(a_wins, a.data, b.data), (a, b), lambda g: (
        _unbroadcast(g * a_wins, a.shape), _unbroadcast(g * ~a_wins, b.shape)))


def maximum(a: Tensor, b: Tensor) -> Tensor:
    a_wins = a.data >= b.data
    return _emit(np.where(a_wins, a.data, b.data), (a, b), lambda g: (
        _unbroadcast(g * a_wins, a.shape), _unbroadcast(g * ~a_wins, b.shape)))


def take_cols(a: Tensor, cols) -> Tensor:
    """Select columns ``a[:, cols]`` of a 2-D tensor; backward scatter-adds
    the gradient's columns through the segment kernel over its transpose."""
    cols = np.asarray(cols, dtype=np.intp).reshape(-1)

    def back(g):
        out = np.empty_like(a.data)
        out.T[...] = ScatterPlan.of(cols, a.shape[1]).scatter(g.T)
        return (out,)

    return _emit(a.data[:, cols], (a,), back)


def iou_1d(a, b) -> float:
    """IoU of two [start, end] intervals; degenerate unions score 0."""
    inter = max(0.0, min(a[1], b[1]) - max(a[0], b[0]))
    union = (a[1] - a[0]) + (b[1] - b[0]) - inter
    return inter / union if union > 0 else 0.0
