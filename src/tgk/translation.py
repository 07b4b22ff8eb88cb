"""Token-translation baseline: cross-task attention over frozen features.

Each task contributes its per-node neck outputs as tokens (possibly from
different pyramid stages). Tokens from all tasks are concatenated, tagged
with a learned per-task embedding, and run through a small pre-norm
transformer encoder whose attention is masked by temporal distance: token
i may attend to token j only when |t_i - t_j| <= 2**stage_i (inclusive),
so coarse-stage tokens see farther. The mask is asymmetric whenever the
two tokens' stages differ, and every token always sees itself. Only the
rows belonging to the primary task feed its head, so the last layer
encodes only those.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (
    ScatterPlan, Tensor, add, attention_index, concat_rows, gather_rows,
    layer_norm_rows, linear, masked_attention, merge_heads, split_heads,
)
from .graph import VideoCache
from .optim import linear_init, uniform_fan_in
from .tasks import MlpParams, mlp_forward

__all__ = ["build_mask", "EncoderLayerParams", "TranslationParams",
           "encoder_forward", "translation_forward"]


def build_mask(positions_s: np.ndarray, stages: np.ndarray) -> np.ndarray:
    """Attention admission matrix over a token set.

    mask[i, j] is True when |t_i - t_j| <= 2**stage_i; the bound uses the
    row token's stage, so rows of coarse tokens admit more columns than
    rows of fine tokens over the same time gap. The diagonal is forced
    True regardless.
    """
    t = np.asarray(positions_s, dtype=np.float64).reshape(-1)
    stages = np.asarray(stages, dtype=np.int64).reshape(-1)
    if t.shape != stages.shape:
        raise ValueError("one stage per token required")
    gap = np.abs(t[:, None] - t[None, :])
    mask = gap <= (2.0 ** stages)[:, None]
    np.fill_diagonal(mask, True)
    return mask


@dataclass
class EncoderLayerParams:
    """One pre-norm block: masked multi-head attention, then a two-layer
    feed-forward, each behind a residual."""

    ln1_g: Tensor
    ln1_b: Tensor
    wq: Tensor
    bq: Tensor
    wk: Tensor
    bk: Tensor
    wv: Tensor
    bv: Tensor
    wo: Tensor
    bo: Tensor
    ln2_g: Tensor
    ln2_b: Tensor
    num_heads: int
    ff: MlpParams

    @classmethod
    def init(cls, rng, dim: int, num_heads: int) -> "EncoderLayerParams":
        if dim % num_heads:
            raise ValueError("model dim must divide evenly into heads")
        wq, bq = linear_init(rng, dim, dim)
        wk, bk = linear_init(rng, dim, dim)
        wv, bv = linear_init(rng, dim, dim)
        wo, bo = linear_init(rng, dim, dim)
        ff = MlpParams.init(rng, dim, 4 * dim, dim)
        ones = Tensor(np.ones(dim), requires_grad=True)
        zeros = Tensor(np.zeros(dim), requires_grad=True)
        ones2 = Tensor(np.ones(dim), requires_grad=True)
        zeros2 = Tensor(np.zeros(dim), requires_grad=True)
        return cls(ones, zeros, wq, bq, wk, bk, wv, bv, wo, bo,
                   ones2, zeros2, num_heads, ff)

    def params(self) -> list[Tensor]:
        return [self.ln1_g, self.ln1_b, self.wq, self.bq, self.wk, self.bk,
                self.wv, self.bv, self.wo, self.bo, self.ln2_g, self.ln2_b,
                *self.ff.params()]


def _attention(p: EncoderLayerParams, xq: Tensor, x: Tensor,
               mask: np.ndarray, admitted: np.ndarray) -> Tensor:
    """All heads at once: (heads, rows, dh) stacks through one masked
    attention record, queries from ``xq``'s rows and keys and values from
    ``x``'s, the (rows, tokens) mask broadcast over heads."""
    q, k, v = (split_heads(linear(src, w, b), p.num_heads)
               for src, w, b in ((xq, p.wq, p.bq), (x, p.wk, p.bk),
                                 (x, p.wv, p.bv)))
    out = masked_attention(q, k, v, mask, admitted)
    return linear(merge_heads(out), p.wo, p.bo)


def _encoder_layer(p: EncoderLayerParams, x: Tensor, mask: np.ndarray,
                   admitted: np.ndarray, rows: ScatterPlan | None = None
                   ) -> Tensor:
    """One block over every token, or, given the ``gather_rows`` plan
    ``rows``, one whose keys and values read every token and whose
    queries and everything after them run on those rows only, under
    their rows of the admission ``mask``."""
    h = layer_norm_rows(x, p.ln1_g, p.ln1_b)
    hq = h
    if rows is not None:
        hq, x = gather_rows(h, rows), gather_rows(x, rows)
    x = add(x, _attention(p, hq, h, mask, admitted))
    h = mlp_forward(p.ff, layer_norm_rows(x, p.ln2_g, p.ln2_b))
    return add(x, h)


@dataclass
class TranslationParams:
    """Encoder stack plus per-task token embeddings and a final norm."""

    task_embed: dict[str, Tensor]
    layers: list[EncoderLayerParams]
    ln_g: Tensor
    ln_b: Tensor

    @classmethod
    def init(cls, rng, dim: int, tasks: list[str], num_layers: int = 2,
             num_heads: int = 4) -> "TranslationParams":
        embed = {t: Tensor(uniform_fan_in(rng, (1, dim)), requires_grad=True)
                 for t in sorted(tasks)}
        layers = [EncoderLayerParams.init(rng, dim, num_heads)
                  for _ in range(num_layers)]
        return cls(embed, layers,
                   Tensor(np.ones(dim), requires_grad=True),
                   Tensor(np.zeros(dim), requires_grad=True))

    @property
    def num_heads(self) -> int:
        """Heads per layer; ``init`` gives every layer the same count."""
        return self.layers[0].num_heads

    def params(self) -> list[Tensor]:
        out = [self.task_embed[t] for t in sorted(self.task_embed)]
        for layer in self.layers:
            out.extend(layer.params())
        out.extend([self.ln_g, self.ln_b])
        return out


def encoder_forward(p: TranslationParams, x: Tensor, mask: np.ndarray,
                    admitted: np.ndarray | None = None,
                    rows: tuple[ScatterPlan, np.ndarray, np.ndarray] | None
                    = None) -> Tensor:
    """The encoder over tokens ``x`` under the boolean admission ``mask``;
    ``admitted`` is ``attention_index(mask, heads)``, built here when not
    given. Every layer runs on all tokens and all rows come back, unless
    ``rows`` is ``(plan, rows_mask, rows_admitted)``: the ``gather_rows``
    plan of some token rows, ``mask`` at those rows and its attention
    index. Then the last layer computes its queries and everything after
    them on those rows only, and only they come back, with the bytes of
    those rows of the full encoding."""
    if admitted is None:
        admitted = attention_index(mask, p.num_heads)
    last = len(p.layers) - (rows is not None)
    for layer in p.layers[:last]:
        x = _encoder_layer(layer, x, mask, admitted)
    if rows is not None:
        plan, rows_mask, rows_admitted = rows
        x = _encoder_layer(p.layers[-1], x, rows_mask, rows_admitted, plan)
    return layer_norm_rows(x, p.ln_g, p.ln_b)


def translation_forward(p: TranslationParams,
                        tokens: dict[str, tuple[Tensor, np.ndarray, int]],
                        primary: str, cache: VideoCache | None = None
                        ) -> Tensor:
    """Encode all tasks' tokens together, return the primary task's rows.

    ``tokens`` maps task name to (features, positions_s, stage). Tasks are
    concatenated in sorted-name order with their learned embedding added,
    in one record; the temporal mask, its primary block and their
    attention indices are built from positions, stages and the primary
    rows, once per ``cache`` for each token layout and primary. Every
    encoder layer but the last runs on all tokens, and the last computes
    the encoded rows of ``primary`` only, in their original order.
    """
    if primary not in tokens:
        raise KeyError(f"primary task {primary!r} has no tokens")
    names = sorted(tokens)
    sizes = [tokens[name][0].shape[0] for name in names]
    start = sum(sizes[:names.index(primary)])
    block = slice(start, start + tokens[primary][0].shape[0])
    x = concat_rows([tokens[name][0] for name in names],
                    [p.task_embed[name] for name in names])
    positions = np.concatenate([np.asarray(tokens[name][1], dtype=np.float64)
                                for name in names])
    stages = np.repeat(np.array([tokens[name][2] for name in names],
                                dtype=np.int64), sizes)
    cache = VideoCache() if cache is None else cache

    def layout():
        mask = build_mask(positions, stages)
        return (mask, attention_index(mask, p.num_heads),
                (ScatterPlan.of(np.arange(block.start, block.stop),
                                len(positions)),
                 mask[block], attention_index(mask[block], p.num_heads)))

    mask, admitted, rows = cache.get(
        ("mask", p.num_heads, positions.tobytes(), stages.tobytes(),
         block.start, block.stop), layout)
    return encoder_forward(p, x, mask, admitted, rows)
