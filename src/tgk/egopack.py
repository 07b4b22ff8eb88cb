"""Cross-task transfer through frozen per-task prototype banks.

After multi-task training, each support task is summarized as a bank of
prototypes: annotated intervals are aligned on the recognition
boundaries, projected through that task's neck, and averaged per
(verb, noun) pair. Banks are immutable from then on.

A novel task queries the banks: each node matches its k nearest
prototypes and refines itself through a stack of interaction layers that
mix the node's own projection with the mean of its activated prototypes.
One interaction stack exists per support task; their outputs are fused
in feature space (mean).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .autodiff import Tensor, add, linear, matmul, mul
from .graph import load_rows, save_rows
from .optim import uniform_fan_in

__all__ = [
    "PrototypeBank", "build_prototypes", "save_bank", "load_bank",
    "knn_match", "InteractionParams", "interaction_forward",
    "fuse_features", "activation_histogram", "activation_consensus",
]


@dataclass
class PrototypeBank:
    """Frozen prototypes for one support task.

    ``prototypes`` is (P, dim) with P >= 1 rows ordered by ``keys``
    (sorted (verb, noun) pairs) and every value finite; the array is
    marked read-only at construction, so its squared row norms
    ``sq_norms``, which matching reads, are computed once.
    """

    task: str
    prototypes: np.ndarray
    keys: list[tuple[int, int]]
    sq_norms: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.prototypes = np.asarray(self.prototypes, dtype=np.float64)
        self.prototypes.flags.writeable = False
        if not self.prototypes.shape[0]:
            raise ValueError(f"bank {self.task}: holds no prototypes")
        if self.prototypes.shape[0] != len(self.keys):
            raise ValueError("one key per prototype row required")
        if sorted(self.keys) != list(self.keys):
            raise ValueError("prototype keys must be sorted")
        if not np.isfinite(self.prototypes).all():
            raise ValueError(f"bank {self.task}: prototypes hold non-finite "
                             "values")
        self.sq_norms = (self.prototypes * self.prototypes).sum(axis=1)
        self.sq_norms.flags.writeable = False

    @property
    def size(self) -> int:
        return self.prototypes.shape[0]

    @property
    def dim(self) -> int:
        return self.prototypes.shape[1]


def build_prototypes(task: str, features: np.ndarray,
                     keys: np.ndarray) -> PrototypeBank:
    """Average per-annotation features into one prototype per (verb, noun).

    ``features`` is (M, dim) task-neck outputs for M annotated intervals;
    ``keys`` is (M, 2) integer verb/noun pairs. Rows come out sorted by
    key so bank layout is deterministic.
    """
    features = np.asarray(features, dtype=np.float64)
    keys = np.asarray(keys, dtype=np.intp).reshape(-1, 2)
    if features.shape[0] != keys.shape[0]:
        raise ValueError("one key pair per feature row required")
    uniq = sorted({(int(v), int(n)) for v, n in keys})
    protos = np.zeros((len(uniq), features.shape[1]))
    for row, (v, n) in enumerate(uniq):
        mask = (keys[:, 0] == v) & (keys[:, 1] == n)
        protos[row] = features[mask].mean(axis=0)
    return PrototypeBank(task=task, prototypes=protos, keys=uniq)


def save_bank(directory: str | Path, bank: PrototypeBank) -> None:
    """Write a bank as the row file ``<task>.bin`` + ``<task>.json``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    save_rows(directory / bank.task, bank.prototypes, "num_prototypes",
              task=bank.task, keys=[[int(v), int(n)] for v, n in bank.keys])


def load_bank(directory: str | Path, task: str) -> PrototypeBank:
    protos, index = load_rows(Path(directory) / task, "num_prototypes",
                              "keys")
    keys = [(int(v), int(n)) for v, n in index["keys"]]
    return PrototypeBank(task=task, prototypes=protos, keys=keys)


def knn_match(x: np.ndarray, bank: PrototypeBank, k: int) -> np.ndarray:
    """Indices of each row's k nearest prototypes by Euclidean distance.

    Distance ties go to the lower prototype index, so matching is
    deterministic; k must be >= 0 and is capped at the bank size. A GEMM
    expansion ``|x|^2 - 2 x.p + |p|^2`` screens the candidates, and the
    order compares the bytes of the exact ``((x - p) ** 2).sum()``. With E
    a bound on the screen's error against that expression's, a row whose
    k + 1 smallest screened values (all P when k = P) sit more than 2E
    apart has the same exact order, with no ties, so it keeps its
    screened order. Only the other rows, the near-ties, get the exact
    expression, on the candidates within 2E of the row's k-th screened
    value, where every true neighbour sits.
    """
    if k < 0:
        raise ValueError(f"knn_match: k must be >= 0, got {k}")
    x = np.asarray(x, dtype=np.float64)
    protos = bank.prototypes
    k = min(k, bank.size)
    if k == 0:
        return np.zeros((x.shape[0], 0), dtype=np.intp)
    xx = (x * x).sum(axis=1)
    pp = bank.sq_norms
    approx = xx[:, None] - 2.0 * (x @ protos.T) + pp
    # approx and the exact expression each lie within (D + 2) u (|x| + |p|)^2
    # of the true distance, u = eps / 2, so E = (D + 2) eps (|x| + |p|)^2;
    # one more eps (|x| + |p|)^2 covers the rounding of E and the threshold.
    err = (x.shape[1] + 3) * np.finfo(np.float64).eps * (
        np.sqrt(xx) + np.sqrt(pp.max())) ** 2
    # each row's k + 1 smallest screened values (all P when k = P), sorted
    near = (np.argpartition(approx, k, axis=1)[:, :k + 1] if k < bank.size
            else np.broadcast_to(np.arange(k), approx.shape))
    each = np.arange(x.shape[0])[:, None]
    screened = approx[each, near]
    order = np.argsort(screened, axis=1, kind="stable")
    near, screened = near[each, order], screened[each, order]
    gaps = screened[:, 1:] - screened[:, :-1]
    tied = np.flatnonzero(~(gaps > 2.0 * err[:, None]).all(axis=1))
    out = near[:, :k].copy()
    if len(tied):
        kth = screened[tied, k - 1]
        rows, cols = np.nonzero(
            ~(approx[tied] > (kth + 2.0 * err[tied])[:, None]))
        d2 = ((x[tied[rows]] - protos[cols]) ** 2).sum(axis=1)
        order = np.lexsort((cols, d2, rows))
        counts = np.bincount(rows, minlength=len(tied))
        first = np.cumsum(counts) - counts
        out[tied] = cols[order][first[:, None] + np.arange(k)]
    return out


@dataclass
class InteractionParams:
    """Interaction stack for one support task: per layer, a projection of
    the node state and a projection of its activated-prototype mean, summed
    with no bias or activation."""

    layers: list[tuple[Tensor, Tensor]]  # (w_self, w_proto) per layer

    @classmethod
    def init(cls, rng, dim: int, num_layers: int) -> "InteractionParams":
        layers = []
        for _ in range(num_layers):
            w_self = Tensor(uniform_fan_in(rng, (dim, dim)), requires_grad=True)
            w_proto = Tensor(uniform_fan_in(rng, (dim, dim)), requires_grad=True)
            layers.append((w_self, w_proto))
        return cls(layers)

    def params(self) -> list[Tensor]:
        return [t for pair in self.layers for t in pair]


def interaction_forward(p: InteractionParams, x: Tensor, bank: PrototypeBank,
                        k: int, rematch: bool = True) -> Tensor:
    """Refine node features against one bank.

    Matching is discrete (no gradient through prototype selection) and the
    prototypes themselves are constants; gradients reach only the two
    projection matrices per layer and the incoming features. With
    ``rematch`` each layer re-queries the bank with its updated features;
    otherwise the input matching is reused throughout.
    """
    idx = knn_match(x.data, bank, k)
    for layer, (w_self, w_proto) in enumerate(p.layers):
        if rematch and layer:
            idx = knn_match(x.data, bank, k)
        # the bytes of prototypes[idx].mean(axis=1) at any dim >= 2 (a
        # config's dim is even): both add the k rows in column order, then
        # divide by k; at dim 1 the mean sums pairwise
        proto_mean = np.add.reduce(bank.prototypes.take(idx.T, axis=0),
                                   axis=0) / idx.shape[1]
        x = linear(x, w_self, matmul(Tensor(proto_mean), w_proto))
    return x


def fuse_features(branches: list[Tensor]) -> Tensor:
    """Feature-space fusion: plain mean across interaction branches."""
    if not branches:
        raise ValueError("nothing to fuse")
    out = branches[0]
    for b in branches[1:]:
        out = add(out, b)
    return mul(out, Tensor(1.0 / len(branches)))


def activation_histogram(idx: np.ndarray, bank: PrototypeBank
                         ) -> list[tuple[str, int]]:
    """How often each prototype fired across a matching, by key label."""
    counts = np.bincount(np.asarray(idx).reshape(-1), minlength=bank.size)
    return [(f"{v}_{n}", int(c)) for (v, n), c in zip(bank.keys, counts)]


def activation_consensus(matches: dict[str, np.ndarray],
                         banks: dict[str, PrototypeBank]
                         ) -> list[tuple[str, str, float]]:
    """Pairwise agreement between tasks' activations on shared queries.

    For each node, each task activates k prototypes; agreement for a task
    pair is the mean fraction of (verb, noun) keys the two activation sets
    share. Rows come out sorted by task-name pair.
    """
    names = sorted(matches)
    out = []
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            idx_a, idx_b = matches[a], matches[b]
            keys_a, keys_b = banks[a].keys, banks[b].keys
            n = idx_a.shape[0]
            k = idx_a.shape[1]
            total = 0.0
            for row in range(n):
                set_a = {keys_a[j] for j in idx_a[row]}
                set_b = {keys_b[j] for j in idx_b[row]}
                total += len(set_a & set_b) / k
            out.append((a, b, total / max(n, 1)))
    return out
