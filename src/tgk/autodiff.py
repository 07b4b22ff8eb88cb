"""Dense float64 tensors with tape-based reverse-mode differentiation.

Every trainable component in the toolkit is built from the primitives in
this module. Ops compute eagerly on numpy arrays; when a ``GradientTape``
is active, each primitive appends a record (output, inputs, backward
closure) to the tape. Records are appended in execution order, which is a
topological order of the computation, so ``backward`` replays them in
reverse to accumulate gradients into the leaves.

Design constraints:
  - float64 only; desk-scale problems, so no GPU paths, and a primitive
    fuses a chain of ops only when it keeps the chain's bytes;
  - gradients accumulate additively when a tensor feeds several ops;
  - scatter/segment reductions over an empty bucket produce zeros.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Tensor",
    "GradientTape",
    "backward",
    "add", "sub", "mul", "div", "matmul", "linear",
    "split_heads", "merge_heads",
    "exp", "log", "relu", "leaky_relu", "sigmoid", "softplus", "tsum",
    "tmean", "ScatterPlan", "gather_rows", "take_per_row",
    "segment_sum", "segment_mean", "segment_max", "tdgc_aggregate",
    "concat_rows", "attention_index", "masked_attention", "layer_norm_rows",
    "cross_entropy_rows",
]


class Tensor:
    """A dense float64 array plus gradient metadata.

    ``requires_grad`` marks trainable leaves. Outputs of primitives set it
    automatically when any input requires grad. ``grad`` is populated by
    ``backward`` for the leaves it is given.
    """

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        """A view of the same values that blocks gradient flow."""
        return Tensor(self.data, requires_grad=False)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class _Record:
    __slots__ = ("out", "inputs", "backward_fn")

    def __init__(self, out, inputs, backward_fn):
        self.out = out
        self.inputs = inputs
        self.backward_fn = backward_fn


_TAPE_STACK: list["GradientTape"] = []


class GradientTape:
    """Ordered record of primitive ops, enabling one reverse sweep.

    Use as a context manager around the forward computation::

        with GradientTape() as tape:
            loss = model_loss(params, ...)
        backward(tape, loss, params)  # each param's .grad is dLoss/dParam

    The tape only records ops whose output requires grad, so constant
    subgraphs cost nothing. One tape is owned by one training loop; tensors
    may be read concurrently but never mutated while taped.
    """

    def __init__(self):
        self.records: list[_Record] = []

    def __enter__(self) -> "GradientTape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPE_STACK.pop()
        assert popped is self


def _active_tape() -> GradientTape | None:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def _emit(out_data, inputs: tuple[Tensor, ...], backward_fn) -> Tensor:
    out = Tensor(out_data)
    out.requires_grad = any(t.requires_grad for t in inputs)
    tape = _active_tape()
    if tape is not None and out.requires_grad:
        tape.records.append(_Record(out, inputs, backward_fn))
    return out


def backward(tape: GradientTape, loss: Tensor, leaves) -> None:
    """Reverse sweep over the tape.

    ``loss`` must be scalar (size 1). Each tensor in ``leaves`` receives
    dLoss/dLeaf in its ``.grad`` field; a leaf the computation never
    touched gets zeros.
    """
    if loss.size != 1:
        raise ValueError(f"backward needs a scalar loss, got shape {loss.shape}")
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for rec in reversed(tape.records):
        g_out = grads.pop(id(rec.out), None)
        if g_out is None:
            continue
        for t, g in zip(rec.inputs, rec.backward_fn(g_out)):
            if g is None or not t.requires_grad:
                continue
            key = id(t)
            if key in grads:
                grads[key] = grads[key] + g
            else:
                grads[key] = np.asarray(g, dtype=np.float64)

    for t in leaves:
        g = grads.get(id(t))
        if g is None:
            g = np.zeros_like(t.data)
        else:
            g = np.broadcast_to(g, t.data.shape).astype(np.float64, copy=True) \
                if g.shape != t.data.shape else g
        t.grad = g


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# elementwise primitives (broadcasting, gradients unbroadcast back)
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    return _emit(a.data + b.data, (a, b), lambda g: (
        _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))


def sub(a: Tensor, b: Tensor) -> Tensor:
    return _emit(a.data - b.data, (a, b), lambda g: (
        _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product; a constant factor gets no gradient computed."""
    return _emit(a.data * b.data, (a, b), lambda g: (
        _unbroadcast(g * b.data, a.shape) if a.requires_grad else None,
        _unbroadcast(g * a.data, b.shape) if b.requires_grad else None))


def div(a: Tensor, b: Tensor) -> Tensor:
    return _emit(a.data / b.data, (a, b), lambda g: (
        _unbroadcast(g / b.data, a.shape),
        _unbroadcast(-g * a.data / (b.data * b.data), b.shape)))


def power_grad(g: np.ndarray, x: np.ndarray, p: float) -> np.ndarray:
    """The backward of ``x ** p``: ``g * p * x ** (p - 1)``, zeros for
    ``p == 0``."""
    if p == 0.0:
        return np.zeros_like(x)
    return g * p * x ** (p - 1.0)


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)
    return _emit(out, (a,), lambda g: (g * out,))


def log(a: Tensor) -> Tensor:
    return _emit(np.log(a.data), (a,), lambda g: (g / a.data,))


def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.data, 0.0)
    return _emit(out, (a,), lambda g: (g * (a.data > 0.0),))


def leaky_relu(a: Tensor, slope: float = 0.2) -> Tensor:
    out = np.where(a.data > 0.0, a.data, slope * a.data)
    return _emit(out, (a,), lambda g: (g * np.where(a.data > 0.0, 1.0, slope),))


def sigmoid_values(x: np.ndarray) -> np.ndarray:
    """Overflow-safe logistic on raw arrays (no tape involvement)."""
    pos = x >= 0.0
    e = np.exp(np.where(pos, -x, x))
    return np.where(pos, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(a: Tensor) -> Tensor:
    out = sigmoid_values(a.data)
    return _emit(out, (a,), lambda g: (g * out * (1.0 - out),))


def softplus(a: Tensor) -> Tensor:
    out = np.logaddexp(0.0, a.data)
    return _emit(out, (a,), lambda g: (g * sigmoid_values(a.data),))


# ---------------------------------------------------------------------------
# linear algebra and shape primitives
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"matmul expects 2-D operands, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    return _emit(a.data @ b.data, (a, b), lambda g: (
        g @ b.data.T, a.data.T @ g))


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """The affine map ``x @ w + b`` as one record, with the bytes of
    ``add(matmul(x, w), b)``; ``b`` broadcasts over the rows. ``g @ wᵀ``
    is computed only when ``x`` requires grad."""
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ValueError(f"linear shape mismatch: {x.shape} @ {w.shape}")
    return _emit(x.data @ w.data + b.data, (x, w, b), lambda g: (
        g @ w.data.T if x.requires_grad else None, x.data.T @ g,
        _unbroadcast(g, b.shape)))


def split_heads(a: Tensor, heads: int) -> Tensor:
    """(rows, heads * w) -> (heads, rows, w): slice h is the column block
    ``a[:, h*w:(h+1)*w]``, laid out in Fortran order as ``a[:, cols]`` lays
    it out, so stacked products over the slices give ``matmul``'s bytes on
    them. The gradient comes back C-ordered."""
    n, width = a.shape
    out = np.ascontiguousarray(a.data.T).reshape(heads, width // heads, n)

    def back(g):
        return (np.ascontiguousarray(g.transpose(1, 0, 2)).reshape(n, width),)

    return _emit(out.swapaxes(1, 2), (a,), back)


def merge_heads(a: Tensor) -> Tensor:
    """(heads, rows, w) -> (rows, heads * w), C-ordered, the inverse of
    ``split_heads``; the gradient comes back in ``split_heads``' layout."""
    heads, n, w = a.shape

    def back(g):
        return (np.ascontiguousarray(g.T).reshape(heads, w, n).swapaxes(1, 2),)

    out = np.ascontiguousarray(a.data.transpose(1, 0, 2)).reshape(n, heads * w)
    return _emit(out, (a,), back)


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def back(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).copy(),)

    return _emit(out, (a,), back)


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = a.data.mean(axis=axis, keepdims=keepdims)
    count = a.size if axis is None else a.shape[axis]

    def back(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).copy() / count,)

    return _emit(out, (a,), back)


# ---------------------------------------------------------------------------
# indexed primitives for graph aggregation
# ---------------------------------------------------------------------------

class ScatterPlan:
    """Where each segment's rows sit in a value array, compiled once and
    read by every scatter over the same ids.

    ``ids[r]`` is the segment of value row ``r``. Row ``s`` of ``table``
    lists segment ``s``'s value rows in ascending order, in the slots
    where ``filled`` holds; a plan derived by dropping rows may leave
    holes. ``counts[s]`` is the segment's size. ``scatter`` folds each
    segment's rows left to right onto a start value, skipping empty
    slots: the bytes of ``np.add.at`` into zeros, or of ``np.maximum.at``
    into -inf, without their per-element dispatch.
    """

    __slots__ = ("ids", "table", "filled", "counts")

    def __init__(self, ids: np.ndarray, table: np.ndarray,
                 filled: np.ndarray, counts: np.ndarray):
        self.ids = ids
        self.table = table
        self.filled = filled
        self.counts = counts

    @classmethod
    def of(cls, ids, num_segments: int) -> "ScatterPlan":
        """The plan of raw segment ids: one stable argsort lines each
        segment's rows up in input order."""
        ids = np.asarray(ids, dtype=np.intp)
        order = np.argsort(ids, kind="stable")
        counts = np.bincount(ids, minlength=num_segments)
        ends = np.cumsum(counts)
        slots = (ends - counts)[:, None] + np.arange(counts.max(initial=0))
        filled = slots < ends[:, None]
        table = order[np.minimum(slots, len(order) - 1)] * filled
        return cls(ids, table, filled, counts)

    def scatter(self, values: np.ndarray, fold=np.add, start=0.0) -> np.ndarray:
        """Rows of ``values`` folded per segment by the ufunc ``fold``
        onto ``start``, which empty segments keep."""
        out = np.full((len(self.counts),) + values.shape[1:], start)
        if not len(values):
            return out
        filled = self.filled.reshape(self.filled.shape
                                     + (1,) * (values.ndim - 1))
        for col in range(self.table.shape[1]):
            fold(out, values.take(self.table[:, col], axis=0), out=out,
                 where=filled[:, col])
        return out


def _plan(seg, num_segments) -> ScatterPlan:
    return seg if isinstance(seg, ScatterPlan) else ScatterPlan.of(
        seg, num_segments)


def gather_rows(a: Tensor, idx) -> Tensor:
    """Select rows ``a[idx]``; backward scatter-adds into the source.

    ``idx`` is an index array, or a ``ScatterPlan`` over ``a``'s rows whose
    ids are the index and whose table routes the backward; for an index
    array the backward builds that plan when it runs.
    """
    if not isinstance(idx, ScatterPlan):
        idx = np.asarray(idx, dtype=np.intp)
    ids = idx.ids if isinstance(idx, ScatterPlan) else idx
    return _emit(a.data[ids], (a,),
                 lambda g: (_plan(idx, a.shape[0]).scatter(g),))


def take_per_row(a: Tensor, cols) -> Tensor:
    """Pick one column per row: out[i] = a[i, cols[i]]."""
    cols = np.asarray(cols, dtype=np.intp)
    rows = np.arange(a.shape[0])

    def back(g):
        out = np.zeros_like(a.data)
        out[rows, cols] = g
        return (out,)

    return _emit(a.data[rows, cols], (a,), back)


def segment_sum(a: Tensor, seg, num_segments: int | None = None) -> Tensor:
    """Sum rows sharing a segment id; empty segments yield zero rows.
    ``seg`` is a ``ScatterPlan`` or raw ids with ``num_segments``."""
    plan = _plan(seg, num_segments)
    return _emit(plan.scatter(a.data), (a,), lambda g: (g[plan.ids],))


def segment_mean(a: Tensor, seg, num_segments: int | None = None) -> Tensor:
    """Mean of rows per segment id; empty segments yield zero rows.
    ``seg`` is a ``ScatterPlan`` or raw ids with ``num_segments``."""
    plan = _plan(seg, num_segments)
    scale = np.maximum(plan.counts, 1.0).reshape((-1,) + (1,) * (a.ndim - 1))
    out = plan.scatter(a.data)
    out /= scale
    return _emit(out, (a,), lambda g: ((g / scale)[plan.ids],))


def segment_max(a: Tensor, seg, num_segments: int | None = None) -> Tensor:
    """Per-segment column-wise max; empty segments yield zero rows.
    ``seg`` is a ``ScatterPlan`` or raw ids with ``num_segments``.

    Gradient routes to the first row attaining the max in each segment
    (the plan's table lists rows in ascending order); a NaN max routes
    none.
    """
    plan = _plan(seg, num_segments)
    flat = a.data.reshape(a.shape[0], int(np.prod(a.shape[1:])))
    out = plan.scatter(flat, np.maximum, -np.inf)
    out[plan.counts == 0] = 0.0
    hits = (flat[plan.table] == out[:, None]) & plan.filled[:, :, None]
    seg_ids, cols = np.nonzero(hits.any(axis=1))
    slots = hits[seg_ids, :, cols].argmax(axis=1) if len(seg_ids) else seg_ids
    rows = plan.table[seg_ids, slots]

    def back(g):
        grad = np.zeros_like(flat)  # added onto, so -0.0 comes out +0.0
        grad[rows, cols] += g.reshape(out.shape)[seg_ids, cols]
        return (grad.reshape(a.shape),)

    return _emit(out.reshape((len(out),) + a.shape[1:]), (a,), back)


def tdgc_aggregate(h: Tensor, dt: np.ndarray, src: ScatterPlan,
                   dst: ScatterPlan, gate: tuple[Tensor, Tensor] | None,
                   signed: bool) -> Tensor:
    """TDGC's neighbour aggregate as one record: for each edge e, the row
    ``h[dst_e]``, times the gate ``relu(|dt_e| gate_w + gate_b)`` unless
    ``gate`` is None, times ``sign(dt_e)`` if ``signed``, averaged over
    the edges of each ``src`` segment.

    The forward replays the composed chain (``gather_rows``, ``matmul``,
    ``add``, ``relu``, ``mul``, ``mul``, ``segment_mean``) expression by
    expression, and the backward replays those records' backward closures
    in the tape's reverse order, so the output and every gradient keep
    the chain's bytes. The chain's gradient into the constant |dt| column
    is never computed. Only a forward the tape records keeps the gathered
    rows, the gate and the ReLU's mask; any other scales the rows in
    place, so it holds one (edges, dim) array, as the chain did.
    """
    inputs = (h,) if gate is None else (h, *gate)
    recording = _active_tape() is not None and any(
        t.requires_grad for t in inputs)
    rows = h.data[dst.ids]
    if gate is not None:
        gate_w, gate_b = gate
        abs_dt = np.abs(dt).reshape(-1, 1)
        weights = abs_dt @ gate_w.data + gate_b.data
        live = weights > 0.0
        np.maximum(weights, 0.0, out=weights)
        if recording:
            msg, rows = rows, rows * weights
        else:
            rows *= weights
            del weights, live
    if signed:
        sign = np.sign(dt).reshape(-1, 1)
        rows *= sign
    scale = np.maximum(src.counts, 1.0).reshape(-1, 1)
    out = src.scatter(rows)
    out /= scale

    def back(g):
        g_msg = (g / scale)[src.ids]
        if signed:
            g_msg = g_msg * sign
        if gate is None:
            return (dst.scatter(g_msg),)
        g_w = g_b = None
        if gate_w.requires_grad or gate_b.requires_grad:
            g_pre = g_msg * msg * live
            g_w = abs_dt.T @ g_pre
            g_b = _unbroadcast(g_pre, gate_b.shape)
        g_h = dst.scatter(g_msg * weights) if h.requires_grad else None
        return g_h, g_w, g_b

    return _emit(out, inputs, back)


def concat_rows(tensors, shifts=None) -> Tensor:
    """Stack a list of 2-D tensors along axis 0; backward splits the
    gradient. Given ``shifts``, one (1, cols) tensor per part, each part
    is added to its shift first, in the same record: the bytes of
    ``add`` per part, then ``concat_rows``, with each shift's gradient the
    sum of its part's gradient rows."""
    shifts = [] if shifts is None else list(shifts)
    sizes = [t.shape[0] for t in tensors]
    splits = np.cumsum(sizes)[:-1]
    if shifts:
        out = np.concatenate([t.data + s.data
                              for t, s in zip(tensors, shifts)], axis=0)
    else:
        out = np.concatenate([t.data for t in tensors], axis=0)

    def back(g):
        parts = [np.ascontiguousarray(p) for p in np.split(g, splits, axis=0)]
        return (*parts, *(_unbroadcast(p, s.shape) if s.requires_grad else None
                          for p, s in zip(parts, shifts)))

    return _emit(out, (*tensors, *shifts), back)


# ---------------------------------------------------------------------------
# attention, normalisation and the row-wise softmax
# ---------------------------------------------------------------------------

def attention_index(mask: np.ndarray, heads: int) -> np.ndarray:
    """Flat positions of ``mask``'s admitted entries in its broadcast over
    ``heads`` stacked copies, the index ``masked_attention`` reads; build
    it once per mask. Every row must admit at least one position."""
    mask = np.asarray(mask, dtype=bool)
    if not mask.any(axis=-1).all():
        raise ValueError("masked attention: some row admits no position")
    return np.flatnonzero(np.broadcast_to(mask, (heads,) + mask.shape))


def masked_attention(q: Tensor, k: Tensor, v: Tensor, mask: np.ndarray,
                     admitted: np.ndarray) -> Tensor:
    """Scaled dot-product attention over (heads, rows, w) stacks as one
    record: ``softmax(q kᵀ / sqrt(w))`` restricted to the boolean (rows,
    rows) ``mask`` broadcast over heads, times ``v``; ``admitted`` is
    ``attention_index(mask, heads)``.

    Masked positions get weight exactly 0.0, and the softmax's elementwise
    steps run on the admitted entries only, gathered in ``admitted``'s
    order, where each (head, row) owns one contiguous run whose length
    is counted from ``mask``. The forward scales them, shifts each run by
    its maximum and takes ``exp``, giving the numerators ``e``; the
    record keeps ``e`` in that compressed form and the dense row sums
    ``s``, and no dense array. The backward works in one dense buffer:
    ``e / s`` scattered for the product with ``v``, then ``g @ vᵀ``
    written over it. It replays the composed chain's expressions
    (product, softmax of the scaled scores, product) on the admitted
    entries, the softmax's two paths into ``e`` added in the tape's
    order, and keeps the buffer for what reads every entry: the row
    sums, whose pairwise order a gathered sum would change, and the
    three products, which read +0.0 at the masked entries. So the output
    and the gradients keep that chain's bytes.
    """
    scale = 1.0 / np.sqrt(q.shape[2])
    counts = np.tile(np.count_nonzero(mask, axis=-1), q.shape[0])
    x = np.matmul(q.data, k.data.transpose(0, 2, 1))
    flat = x.reshape(-1)
    e = flat[admitted]
    e *= scale
    e -= np.repeat(np.maximum.reduceat(e, np.cumsum(counts) - counts), counts)
    np.exp(e, out=e)
    x.fill(0.0)
    flat[admitted] = e
    s = x.sum(axis=-1, keepdims=True)
    flat[admitted] = e / np.repeat(s.reshape(-1), counts)
    shape = x.shape

    def back(g):
        buf = np.zeros(shape)
        flat = buf.reshape(-1)
        s_at = np.repeat(s.reshape(-1), counts)
        flat[admitted] = e / s_at
        g_v = np.matmul(buf.swapaxes(-1, -2), g)
        np.matmul(g, v.data.swapaxes(-1, -2), out=buf)
        g_w = flat[admitted]
        grad = np.negative(g_w)
        grad *= e
        grad /= s_at * s_at
        buf.fill(0.0)
        flat[admitted] = grad
        g_sum = buf.sum(axis=-1).reshape(-1)
        np.divide(g_w, s_at, out=grad)
        grad += np.repeat(g_sum, counts)
        grad *= e
        grad *= scale
        flat[admitted] = grad
        return (np.matmul(buf, k.data),
                np.matmul(q.data.swapaxes(-1, -2), buf).transpose(0, 2, 1),
                g_v)

    return _emit(np.matmul(x, v.data), (q, k, v), back)


def layer_norm_rows(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Each row standardised (epsilon 1e-6 on the variance), then scaled
    by ``gamma`` and shifted by ``beta``, as one record.

    The forward and backward replay the composed chain (``tmean``,
    ``sub``, ``mul``, ``tmean``, ``add``, ``sqrt``, ``div``, ``mul``,
    ``add``) expression by expression. ``x`` is listed twice among the
    inputs, so its gradients through the centred rows and through the
    mean are added to what ``x`` already holds in that chain's order.
    """
    d = x.shape[1]
    xc = x.data - x.data.mean(axis=1, keepdims=True)
    sd = np.sqrt((xc * xc).mean(axis=1, keepdims=True) + 1e-6)
    out = xc / sd
    out *= gamma.data
    out += beta.data

    def back(g):
        g_xn = g * gamma.data
        g_sd = (-g_xn * xc / (sd * sd)).sum(axis=1, keepdims=True)
        g_sq = np.broadcast_to(g_sd * 0.5 / sd, xc.shape) / d
        g_sq *= xc
        g_xc = g_xn / sd + g_sq
        g_xc += g_sq
        g_mu = np.broadcast_to((-g_xc).sum(axis=1, keepdims=True), x.shape)
        return (g_xc, g_mu / d,
                (g * (xc / sd)).sum(axis=0) if gamma.requires_grad else None,
                g.sum(axis=0))

    return _emit(out, (x, x, gamma, beta), back)


def cross_entropy_rows(logits: Tensor, labels) -> Tensor:
    """Mean negative log-likelihood of integer labels under row softmax."""
    labels = np.asarray(labels, dtype=np.intp)
    n, c = logits.shape
    if labels.shape != (n,):
        raise ValueError(f"labels shape {labels.shape} does not match {n} rows")
    if labels.min() < 0 or labels.max() >= c:
        raise ValueError("label index out of range")
    shift = sub(logits, Tensor(logits.data.max(axis=1, keepdims=True)))
    lse = log(tsum(exp(shift), axis=1))
    return tmean(sub(lse, take_per_row(shift, labels)))
