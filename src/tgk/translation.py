"""Token-translation baseline: cross-task attention over frozen features.

Each task contributes its per-node neck outputs as tokens (possibly from
different pyramid stages). Tokens from all tasks are concatenated, tagged
with a learned per-task embedding, and run through a small pre-norm
transformer encoder whose attention is masked by temporal distance: token
i may attend to token j only when |t_i - t_j| <= 2**stage_i (inclusive),
so coarse-stage tokens see farther. The mask is asymmetric whenever the
two tokens' stages differ, and every token always sees itself. After
encoding, the rows belonging to the primary task feed its head.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (
    Tensor, add, attention_index, concat_rows, gather_rows, layer_norm_rows,
    linear, masked_attention, merge_heads, split_heads,
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


def _attention(p: EncoderLayerParams, x: Tensor, mask: np.ndarray,
               admitted: np.ndarray) -> Tensor:
    """All heads at once: (heads, tokens, dh) stacks through one masked
    attention record, the (tokens, tokens) mask broadcast over heads."""
    q, k, v = (split_heads(linear(x, w, b), p.num_heads)
               for w, b in ((p.wq, p.bq), (p.wk, p.bk), (p.wv, p.bv)))
    out = masked_attention(q, k, v, mask, admitted)
    return linear(merge_heads(out), p.wo, p.bo)


def _encoder_layer(p: EncoderLayerParams, x: Tensor, mask: np.ndarray,
                   admitted: np.ndarray) -> Tensor:
    x = add(x, _attention(p, layer_norm_rows(x, p.ln1_g, p.ln1_b), mask,
                          admitted))
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
                    admitted: np.ndarray | None = None) -> Tensor:
    """The encoder over tokens ``x`` under the boolean admission ``mask``;
    ``admitted`` is ``attention_index(mask, heads)``, built here when not
    given."""
    if admitted is None:
        admitted = attention_index(mask, p.num_heads)
    for layer in p.layers:
        x = _encoder_layer(layer, x, mask, admitted)
    return layer_norm_rows(x, p.ln_g, p.ln_b)


def translation_forward(p: TranslationParams,
                        tokens: dict[str, tuple[Tensor, np.ndarray, int]],
                        primary: str, cache: VideoCache | None = None
                        ) -> Tensor:
    """Encode all tasks' tokens together, return the primary task's rows.

    ``tokens`` maps task name to (features, positions_s, stage). Tasks are
    concatenated in sorted-name order with their learned embedding added,
    the temporal mask and its attention index are built from positions
    and stages, once per ``cache`` for each token layout, and the encoded
    rows of ``primary`` come back in their original order.
    """
    if primary not in tokens:
        raise KeyError(f"primary task {primary!r} has no tokens")
    names = sorted(tokens)
    parts, pos_parts, stage_parts = [], [], []
    offset = 0
    primary_rows = None
    for name in names:
        feats, positions, stage = tokens[name]
        parts.append(add(feats, p.task_embed[name]))
        pos_parts.append(np.asarray(positions, dtype=np.float64))
        stage_parts.append(np.full(feats.shape[0], stage, dtype=np.int64))
        if name == primary:
            primary_rows = np.arange(offset, offset + feats.shape[0])
        offset += feats.shape[0]
    x = concat_rows(parts)
    positions, stages = np.concatenate(pos_parts), np.concatenate(stage_parts)
    cache = VideoCache() if cache is None else cache

    def layout():
        mask = build_mask(positions, stages)
        return mask, attention_index(mask, p.num_heads)

    mask, admitted = cache.get(
        ("mask", p.num_heads, positions.tobytes(), stages.tobytes()), layout)
    encoded = encoder_forward(p, x, mask, admitted)
    return gather_rows(encoded, primary_rows)
