"""Graph layers over temporal graphs.

The main layer (``tdgc_forward``) aggregates neighbors with two
time-derived modulations: a direction sign (past vs future neighbor) and a
magnitude gate (a small MLP of the absolute time offset). Both are what
give the layer its ability to distinguish event order; ``TDGC_VARIANTS``
names the layer with either one off, for ablations.

The rest of the zoo exists for controlled comparisons: GCN, one-head GAT,
GraphSAGE, GraphSAGE with sinusoidal time encodings, and a sign-aware GCN
variant with separate past/future projections.

All forwards share the signature ``forward(params, graph, x)`` with ``x``
a (N, d_in) Tensor, returning (N, d_out). Layers are linear at the output;
activations between layers are the caller's job.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .autodiff import (
    Tensor, add, div, exp, gather_rows, leaky_relu, linear, matmul, mul,
    relu, segment_mean, segment_sum, sub, tdgc_aggregate,
)
from .graph import TemporalGraph
from .optim import linear_init, uniform_fan_in

__all__ = [
    "TdgcParams", "tdgc_forward", "GcnParams", "gcn_forward",
    "GatParams", "gat_forward", "SageParams", "sage_forward",
    "SgcnParams", "sgcn_forward", "sinusoidal_pe", "LayerKind", "LAYER_KINDS",
    "TDGC_VARIANTS",
]


# ---------------------------------------------------------------------------
# time-difference graph convolution
# ---------------------------------------------------------------------------

@dataclass
class TdgcParams:
    """Weights for one time-difference graph convolution layer.

    The neighbor projection is shared across past and future neighbors;
    direction enters only through the per-edge sign, magnitude only through
    the gate (absolute time offset -> per-channel weights through one
    affine map, ReLU kept non-negative).
    """

    w_root: Tensor
    b_root: Tensor
    w_nbr: Tensor
    b_nbr: Tensor
    gate_w: Tensor  # (1, d_out)
    gate_b: Tensor  # (d_out,)
    disable_sign: bool = False
    disable_gate: bool = False

    @classmethod
    def init(cls, rng: np.random.Generator, d_in: int, d_out: int,
             disable_sign: bool = False,
             disable_gate: bool = False) -> "TdgcParams":
        w_root, b_root = linear_init(rng, d_in, d_out)
        w_nbr, b_nbr = linear_init(rng, d_in, d_out)
        # The gate starts at weight 0, bias 1 so it is an exact pass-through
        # at init. A random start would leave the ReLU dead on about half
        # the channels, and with a constant time offset per stage those
        # channels would never receive gradient again.
        gate_w = Tensor(np.zeros((1, d_out)), requires_grad=True)
        gate_b = Tensor(np.ones(d_out), requires_grad=True)
        return cls(w_root, b_root, w_nbr, b_nbr, gate_w, gate_b,
                   disable_sign=disable_sign, disable_gate=disable_gate)

    def params(self) -> list[Tensor]:
        return [self.w_root, self.b_root, self.w_nbr, self.b_nbr,
                self.gate_w, self.gate_b]


def tdgc_forward(p: TdgcParams, g: TemporalGraph, x: Tensor) -> Tensor:
    """out_i = x_i W_r + b_r + mean_{j in N(i)} s_ij * (w_ij * f(x_j W_n + b_n))

    with s_ij the sign of (t_i - t_j), w_ij the magnitude gate, and f ReLU.
    Nodes without neighbors reduce exactly to the root projection. The
    neighbour term is one ``tdgc_aggregate`` record over the topology's
    plans.
    """
    root = linear(x, p.w_root, p.b_root)
    h = relu(linear(x, p.w_nbr, p.b_nbr))
    src, dst = g.topology.plan("src"), g.topology.plan("dst")
    dt = g.positions_s[src.ids] - g.positions_s[dst.ids]
    gate = None if p.disable_gate else (p.gate_w, p.gate_b)
    return add(root, tdgc_aggregate(h, dt, src, dst, gate,
                                    signed=not p.disable_sign))


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------

@dataclass
class GcnParams:
    """Plain graph convolution with self-loops and symmetric normalization."""

    w: Tensor
    b: Tensor

    @classmethod
    def init(cls, rng, d_in: int, d_out: int) -> "GcnParams":
        return cls(*linear_init(rng, d_in, d_out))

    def params(self) -> list[Tensor]:
        return [self.w, self.b]


def _loop_degrees(g: TemporalGraph) -> np.ndarray:
    """Node degrees counting the implicit self-loop."""
    return 1.0 + g.topology.plan("src").counts


def gcn_forward(p: GcnParams, g: TemporalGraph, x: Tensor) -> Tensor:
    h = matmul(x, p.w)
    deg = _loop_degrees(g)
    out = mul(h, Tensor((1.0 / deg).reshape(-1, 1)))  # self-loop term
    src, dst = g.topology.plan("src"), g.topology.plan("dst")
    norm = 1.0 / np.sqrt(deg[src.ids] * deg[dst.ids])
    msg = mul(gather_rows(h, dst), Tensor(norm.reshape(-1, 1)))
    out = add(out, segment_sum(msg, src))
    return add(out, p.b)


@dataclass
class GatParams:
    """Single-head graph attention with self-loops.

    Edge scores are LeakyReLU(0.2) of a_src . h_i + a_dst . h_j, softmaxed
    over each node's closed neighborhood.
    """

    w: Tensor
    b: Tensor
    a_src: Tensor
    a_dst: Tensor

    @classmethod
    def init(cls, rng, d_in: int, d_out: int) -> "GatParams":
        w, b = linear_init(rng, d_in, d_out)
        a_src = Tensor(uniform_fan_in(rng, (d_out, 1)), requires_grad=True)
        a_dst = Tensor(uniform_fan_in(rng, (d_out, 1)), requires_grad=True)
        return cls(w, b, a_src, a_dst)

    def params(self) -> list[Tensor]:
        return [self.w, self.b, self.a_src, self.a_dst]


def gat_forward(p: GatParams, g: TemporalGraph, x: Tensor) -> Tensor:
    src = g.topology.plan("closed_src")
    dst = g.topology.plan("closed_dst")
    h = matmul(x, p.w)
    score_src = matmul(h, p.a_src)  # (N, 1)
    score_dst = matmul(h, p.a_dst)
    e = leaky_relu(add(gather_rows(score_src, src), gather_rows(score_dst, dst)), 0.2)
    # segment softmax over receivers; the per-segment max is a constant shift
    seg_max = src.scatter(e.data[:, 0], np.maximum, -np.inf)
    z = exp(sub(e, Tensor(seg_max[src.ids].reshape(-1, 1))))
    denom = segment_sum(z, src)
    alpha = div(z, gather_rows(denom, src))
    msg = mul(gather_rows(h, dst), alpha)
    return add(segment_sum(msg, src), p.b)


@dataclass
class SageParams:
    """GraphSAGE: root projection plus mean of projected neighbors."""

    w_root: Tensor
    b: Tensor
    w_nbr: Tensor

    @classmethod
    def init(cls, rng, d_in: int, d_out: int) -> "SageParams":
        w_root, b = linear_init(rng, d_in, d_out)
        w_nbr, _ = linear_init(rng, d_in, d_out)
        return cls(w_root, b, w_nbr)

    def params(self) -> list[Tensor]:
        return [self.w_root, self.b, self.w_nbr]


def sage_forward(p: SageParams, g: TemporalGraph, x: Tensor) -> Tensor:
    out = linear(x, p.w_root, p.b)
    src, dst = g.topology.plan("src"), g.topology.plan("dst")
    msg = gather_rows(matmul(x, p.w_nbr), dst)
    return add(out, segment_mean(msg, src))


@dataclass
class SgcnParams:
    """GCN aggregation with separate projections for past and future
    neighbors (time ties and self-loops count as past)."""

    w_past: Tensor
    w_future: Tensor
    b: Tensor

    @classmethod
    def init(cls, rng, d_in: int, d_out: int) -> "SgcnParams":
        w_past, b = linear_init(rng, d_in, d_out)
        w_future, _ = linear_init(rng, d_in, d_out)
        return cls(w_past, w_future, b)

    def params(self) -> list[Tensor]:
        return [self.w_past, self.w_future, self.b]


def sgcn_forward(p: SgcnParams, g: TemporalGraph, x: Tensor) -> Tensor:
    h_past = matmul(x, p.w_past)
    h_future = matmul(x, p.w_future)
    deg = _loop_degrees(g)
    out = mul(h_past, Tensor((1.0 / deg).reshape(-1, 1)))  # self-loop, dt = 0
    src, dst = g.topology.plan("src"), g.topology.plan("dst")
    norm = (1.0 / np.sqrt(deg[src.ids] * deg[dst.ids])).reshape(-1, 1)
    is_past = (g.positions_s[dst.ids] <= g.positions_s[src.ids]).reshape(-1, 1)
    msg = add(mul(gather_rows(h_past, dst), Tensor(is_past * norm)),
              mul(gather_rows(h_future, dst), Tensor(~is_past * norm)))
    out = add(out, segment_sum(msg, src))
    return add(out, p.b)


# ---------------------------------------------------------------------------
# sinusoidal time encoding (for the SAGE+PE baseline)
# ---------------------------------------------------------------------------

def sinusoidal_pe(positions_s: np.ndarray, dim: int) -> np.ndarray:
    """Classic sin/cos encoding evaluated at continuous times in seconds."""
    if dim % 2:
        raise ValueError("encoding dim must be even")
    pos = np.asarray(positions_s, dtype=np.float64).reshape(-1, 1)
    k = np.arange(dim // 2, dtype=np.float64)
    freq = 1.0 / (10000.0 ** (2.0 * k / dim))
    angles = pos * freq
    out = np.empty((pos.shape[0], dim))
    out[:, 0::2] = np.sin(angles)
    out[:, 1::2] = np.cos(angles)
    return out


# ---------------------------------------------------------------------------
# registry used by the backbone and comparison harness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LayerKind:
    """How to build and run one layer family.

    ``adds_time_encoding`` asks the backbone to add ``sinusoidal_pe`` to
    the features entering each pyramid stage.
    """

    name: str
    init: Callable
    forward: Callable
    adds_time_encoding: bool = False


LAYER_KINDS: dict[str, LayerKind] = {
    "tdgc": LayerKind("tdgc", TdgcParams.init, tdgc_forward),
    "gcn": LayerKind("gcn", GcnParams.init, gcn_forward),
    "gat": LayerKind("gat", GatParams.init, gat_forward),
    "sage": LayerKind("sage", SageParams.init, sage_forward),
    "sage-pe": LayerKind("sage-pe", SageParams.init, sage_forward,
                         adds_time_encoding=True),
    "sgcn": LayerKind("sgcn", SgcnParams.init, sgcn_forward),
}

# tdgc without one temporal modulation, layer kinds by name; kept out of
# LAYER_KINDS, which every layer comparison sweeps
TDGC_VARIANTS: dict[str, LayerKind] = {
    name: LayerKind(name, partial(TdgcParams.init, **{switch: True}),
                    tdgc_forward)
    for name, switch in (("tdgc-no-sign", "disable_sign"),
                         ("tdgc-no-gate", "disable_gate"))}
