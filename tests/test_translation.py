"""Cross-task token encoder tests: temporal admission mask, exact
non-influence of masked tokens, token routing, and gradients."""

import tracemalloc

import numpy as np
import pytest

from tgk import translation
from tgk.autodiff import (
    GradientTape, Tensor, add, backward, concat_rows, gather_rows, mul, tsum,
)
from tgk.graph import VideoCache
from tgk.translation import (
    EncoderLayerParams,
    TranslationParams,
    build_mask,
    encoder_forward,
    translation_forward,
)

from oracle_ops import finite_diff_check


# ---------------------------------------------------------------------------
# admission mask
# ---------------------------------------------------------------------------


def test_build_mask_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(10):
        n = int(rng.integers(2, 12))
        t = rng.uniform(0, 30, size=n)
        stages = rng.integers(1, 5, size=n)
        mask = build_mask(t, stages)
        for i in range(n):
            for j in range(n):
                expected = abs(t[i] - t[j]) <= 2.0 ** stages[i] or i == j
                assert mask[i, j] == expected


def test_build_mask_row_stage_widens_window_asymmetrically():
    t = np.array([0.0, 3.0])
    stages = np.array([1, 2])
    mask = build_mask(t, stages)
    # the fine token (window 2) cannot reach 3 s away; the coarse one
    # (window 4) can reach back
    assert not mask[0, 1]
    assert mask[1, 0]
    assert mask[0, 0] and mask[1, 1]


def test_build_mask_diagonal_always_true():
    t = np.array([0.0, 100.0, 200.0])
    mask = build_mask(t, np.array([1, 1, 1]))
    assert np.array_equal(np.diag(mask), [True, True, True])
    assert mask.sum() == 3


def test_build_mask_validates_shapes():
    with pytest.raises(ValueError):
        build_mask(np.zeros(3), np.zeros(2, dtype=int))


def test_build_mask_boundary_inclusive():
    t = np.array([0.0, 2.0])
    mask = build_mask(t, np.array([1, 1]))
    # gap equals the window exactly; admission is inclusive
    assert mask[0, 1] and mask[1, 0]


# ---------------------------------------------------------------------------
# encoder behaviour
# ---------------------------------------------------------------------------


def test_masked_token_has_no_influence_at_all():
    rng = np.random.default_rng(1)
    dim = 8
    p = TranslationParams.init(rng, dim, ["a"], num_layers=2, num_heads=2)
    # token 3 sits far away: no other row admits it across both layers
    t = np.array([0.0, 1.0, 2.0, 500.0])
    stages = np.array([1, 1, 1, 1])
    mask = build_mask(t, stages)
    assert not mask[:3, 3].any()
    x = rng.normal(size=(4, dim))
    base = encoder_forward(p, Tensor(x), mask).data
    bumped = x.copy()
    bumped[3] += rng.normal(scale=10.0, size=dim)
    moved = encoder_forward(p, Tensor(bumped), mask).data
    assert np.max(np.abs(base[:3] - moved[:3])) < 1e-10
    assert np.max(np.abs(base[3] - moved[3])) > 1e-3


def test_isolated_token_encodes_from_itself_only():
    rng = np.random.default_rng(2)
    dim = 4
    p = TranslationParams.init(rng, dim, ["a"], num_layers=1, num_heads=2)
    t = np.array([0.0, 1000.0])
    mask = build_mask(t, np.array([1, 1]))
    x = rng.normal(size=(2, dim))
    out = encoder_forward(p, Tensor(x), mask).data
    solo = encoder_forward(p, Tensor(x[1:]), np.array([[True]])).data
    assert np.allclose(out[1], solo[0], atol=1e-12)
    assert np.all(np.isfinite(out))


def test_encoder_permutation_equivariant():
    rng = np.random.default_rng(3)
    dim = 6
    p = TranslationParams.init(rng, dim, ["a"], num_layers=2, num_heads=3)
    t = rng.uniform(0, 6, size=5)
    stages = rng.integers(1, 3, size=5)
    x = rng.normal(size=(5, dim))
    out = encoder_forward(p, Tensor(x), build_mask(t, stages)).data
    perm = rng.permutation(5)
    out_p = encoder_forward(p, Tensor(x[perm]), build_mask(t[perm], stages[perm])).data
    assert np.allclose(out_p, out[perm], atol=1e-10)


def test_final_norm_standardizes_rows_at_init():
    rng = np.random.default_rng(4)
    dim = 8
    p = TranslationParams.init(rng, dim, ["a"], num_layers=1, num_heads=2)
    x = rng.normal(size=(5, dim)) * 3.0
    mask = np.ones((5, 5), dtype=bool)
    out = encoder_forward(p, Tensor(x), mask).data
    assert np.max(np.abs(out.mean(axis=1))) < 1e-10
    assert np.max(np.abs(out.var(axis=1) - 1.0)) < 1e-3


def test_encoder_layer_rejects_indivisible_heads():
    with pytest.raises(ValueError):
        EncoderLayerParams.init(np.random.default_rng(5), 6, 4)


# ---------------------------------------------------------------------------
# token routing
# ---------------------------------------------------------------------------


def test_translation_forward_returns_primary_rows():
    rng = np.random.default_rng(6)
    dim = 6
    p = TranslationParams.init(rng, dim, ["mq", "ar"], num_layers=1, num_heads=2)
    feats_ar = rng.normal(size=(3, dim))
    feats_mq = rng.normal(size=(2, dim))
    tokens = {
        "ar": (Tensor(feats_ar), np.array([0.0, 1.0, 2.0]), 1),
        "mq": (Tensor(feats_mq), np.array([0.5, 1.5]), 2),
    }
    out = translation_forward(p, tokens, primary="mq")
    assert out.shape == (2, dim)
    # oracle: concatenate in sorted task order with embeddings added,
    # encode with the combined mask, slice the mq block
    x = np.concatenate([
        feats_ar + p.task_embed["ar"].data,
        feats_mq + p.task_embed["mq"].data,
    ])
    mask = build_mask(np.array([0.0, 1.0, 2.0, 0.5, 1.5]),
                      np.array([1, 1, 1, 2, 2]))
    expected = encoder_forward(p, Tensor(x), mask).data[3:]
    assert np.array_equal(out.data, expected)


def test_translation_forward_requires_primary_tokens():
    rng = np.random.default_rng(7)
    p = TranslationParams.init(rng, 4, ["ar"], num_layers=1, num_heads=2)
    tokens = {"ar": (Tensor(np.zeros((2, 4))), np.array([0.0, 1.0]), 1)}
    with pytest.raises(KeyError):
        translation_forward(p, tokens, primary="lta")


def test_cross_task_attention_actually_mixes():
    rng = np.random.default_rng(8)
    dim = 4
    p = TranslationParams.init(rng, dim, ["a", "b"], num_layers=1, num_heads=2)
    near = {
        "a": (Tensor(rng.normal(size=(2, dim))), np.array([0.0, 1.0]), 1),
        "b": (Tensor(rng.normal(size=(1, dim))), np.array([0.5]), 1),
    }
    out_near = translation_forward(p, near, primary="b").data
    far = {
        "a": (near["a"][0], np.array([900.0, 901.0]), 1),
        "b": near["b"],
    }
    out_far = translation_forward(p, far, primary="b").data
    assert np.max(np.abs(out_near - out_far)) > 1e-6


def test_translation_forward_builds_one_mask_per_token_layout(monkeypatch):
    rng = np.random.default_rng(11)
    p = TranslationParams.init(rng, 4, ["a", "b"], num_layers=1, num_heads=2)
    built = []
    real = translation.build_mask

    def counting(positions, stages):
        built.append(positions.tobytes())
        return real(positions, stages)

    monkeypatch.setattr(translation, "build_mask", counting)
    cache = VideoCache()
    for shift in (0.0, 0.0, 3.0, 0.0):
        tokens = {
            "a": (Tensor(rng.normal(size=(2, 4))), np.array([0.0, 1.0]) + shift, 1),
            "b": (Tensor(rng.normal(size=(1, 4))), np.array([0.5]), 1),
        }
        translation_forward(p, tokens, primary="b", cache=cache)
    assert len(built) == 2


def test_translation_forward_caches_one_mask_per_primary(monkeypatch):
    """Two primaries over one token layout read different mask rows, so
    each gets its own cached layout, and each returns its own block of
    the full encoding."""
    built = []
    real = translation.build_mask

    def counting(positions, stages):
        built.append(positions.tobytes())
        return real(positions, stages)

    monkeypatch.setattr(translation, "build_mask", counting)
    rng = np.random.default_rng(15)
    p = TranslationParams.init(rng, 4, ["a", "b"], num_layers=2, num_heads=2)
    tokens = {
        "a": (Tensor(rng.normal(size=(3, 4))), np.array([0.0, 1.0, 9.0]), 1),
        "b": (Tensor(rng.normal(size=(2, 4))), np.array([0.5, 8.0]), 2),
    }
    x = np.concatenate([tokens[t][0].data + p.task_embed[t].data
                        for t in ("a", "b")])
    full = encoder_forward(p, Tensor(x), build_mask(
        np.array([0.0, 1.0, 9.0, 0.5, 8.0]), np.array([1, 1, 1, 2, 2]))).data
    cache = VideoCache()
    for _ in range(2):
        out_a = translation_forward(p, tokens, primary="a", cache=cache)
        out_b = translation_forward(p, tokens, primary="b", cache=cache)
    assert len(built) == 2 and built[0] == built[1]
    assert np.array_equal(out_a.data, full[:3])
    assert np.array_equal(out_b.data, full[3:])


def test_tape_records_do_not_grow_with_heads():
    """All heads share one attention: a translation step's tape holds as
    many records at six heads as at one."""
    counts = {}
    for heads in (1, 2, 3, 6):
        rng = np.random.default_rng(12)
        p = TranslationParams.init(rng, 6, ["a", "b"], num_layers=2,
                                   num_heads=heads)
        tokens = {
            "a": (Tensor(rng.normal(size=(3, 6))), np.array([0.0, 1.0, 2.0]), 1),
            "b": (Tensor(rng.normal(size=(2, 6))), np.array([0.5, 1.5]), 1),
        }
        with GradientTape() as tape:
            tsum(translation_forward(p, tokens, primary="a"))
        counts[heads] = len(tape.records)
    assert len(set(counts.values())) == 1, counts


def benchmark_layout_forward():
    """One two-layer forward at the transfer benchmark's token layout
    (dim 32, three support tasks plus the primary, 32 tokens each, so 128
    tokens in 4 heads of 8), with the layout's mask already cached. Only
    the primary tokens require grad, as in training. Returns the tape and
    the bytes still allocated once the forward returns (tracemalloc)."""
    rng = np.random.default_rng(13)
    p = TranslationParams.init(rng, 32, ["ar", "mq", "oscc", "pnr"])
    tokens = {t: (Tensor(rng.normal(size=(32, 32)), requires_grad=t == "mq"),
                  np.arange(32) + 0.5, 1) for t in ("ar", "mq", "oscc", "pnr")}
    cache = VideoCache()
    translation_forward(p, tokens, primary="mq", cache=cache)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with GradientTape() as tape:
            out = translation_forward(p, tokens, primary="mq", cache=cache)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert out.shape == (32, 32)
    return tape, held


def test_tape_records_at_benchmark_layout():
    """Each attention, each layer norm and each affine map is one record,
    the task embeddings and the token concatenation one more, and the last
    layer selects the primary rows with two gathers: 36, where a
    task-embedding add per task and a final gather made it 39 and the
    composed chains took 99."""
    tape, _ = benchmark_layout_forward()
    assert len(tape.records) <= 36


def test_tape_bytes_at_benchmark_layout():
    """Each attention record keeps its softmax numerators compressed to
    the admitted entries (about 15% of the (heads, tokens, tokens) scores)
    and the row sums, and each affine map keeps one output; the last
    layer's queries and everything after them hold the 32 primary rows
    only: about 1.33 MB. All 128 rows in the last layer made it 1.9 MB, a
    dense numerator array per layer 2.8 MB, and the composed chains,
    which kept four such arrays per layer and an output per product and
    per bias, 7.1 MB."""
    _, held = benchmark_layout_forward()
    assert held <= 1.4e6


def test_attention_backward_peak_at_benchmark_layout():
    """One attention record's backward works in a single dense (heads,
    tokens, tokens) buffer: the first layer's, over all 128 tokens, peaks
    below two such float64 arrays (1,048,576 bytes at 4 x 128 x 128),
    where a fresh ``e / s`` and a fresh ``g @ vᵀ`` took about 1.15 MB."""
    tape, _ = benchmark_layout_forward()
    attention = [r for r in tape.records
                 if r.backward_fn.__qualname__.startswith("masked_attention.")]
    assert [r.out.shape for r in attention] == [(4, 128, 8), (4, 32, 8)]
    g = np.random.default_rng(14).normal(size=attention[0].out.shape)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        grads = attention[0].backward_fn(g)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert [a.shape for a in grads] == [(4, 128, 8)] * 3
    assert peak < 2 * 4 * 128 * 128 * 8


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------


def test_translation_gradients_finite_difference():
    rng = np.random.default_rng(9)
    dim = 4
    p = TranslationParams.init(rng, dim, ["a", "b"], num_layers=1, num_heads=2)
    feats_a = Tensor(rng.normal(size=(2, dim)), requires_grad=True)
    feats_b = Tensor(rng.normal(size=(2, dim)), requires_grad=True)
    weights = Tensor(rng.normal(size=(2, dim)))

    def build_loss():
        tokens = {
            "a": (feats_a, np.array([0.0, 1.0]), 1),
            "b": (feats_b, np.array([0.5, 1.5]), 1),
        }
        return tsum(mul(translation_forward(p, tokens, primary="b"), weights))

    worst = finite_diff_check(build_loss, p.params() + [feats_a, feats_b],
                              rel_tol=1e-4, max_entries=10)
    assert worst < 1e-4


def test_translation_gradients_match_all_rows_path():
    """The last layer on the primary rows only gives the gradients of the
    full encoding's primary rows: every layer on every token, then a
    gather. A GEMM over fewer rows may take another BLAS kernel, so the
    bytes may differ in the last places."""
    rng = np.random.default_rng(16)
    dim = 32
    p = TranslationParams.init(rng, dim, ["ar", "mq", "oscc", "pnr"])
    tokens = {t: (Tensor(rng.normal(size=(32, dim)), requires_grad=t == "mq"),
                  np.arange(32) + 0.5 * (t == "oscc"), 1 + (t == "pnr"))
              for t in ("ar", "mq", "oscc", "pnr")}
    weights = Tensor(rng.normal(size=(32, dim)))
    leaves = p.params() + [tokens["mq"][0]]

    def grads(forward):
        with GradientTape() as tape:
            loss = tsum(mul(forward(), weights))
        backward(tape, loss, leaves=leaves)
        return [t.grad.copy() for t in leaves]

    def all_rows():
        names = sorted(tokens)
        x = concat_rows([add(tokens[t][0], p.task_embed[t]) for t in names])
        mask = build_mask(np.concatenate([tokens[t][1] for t in names]),
                          np.repeat([tokens[t][2] for t in names], 32))
        return gather_rows(encoder_forward(p, x, mask), np.arange(32, 64))

    fast, slow = (grads(lambda: translation_forward(p, tokens, primary="mq")),
                  grads(all_rows))
    # the key bias shifts every score of a row alike, so its gradient is
    # zero up to rounding: the floor scales with the largest gradient
    scale = max(np.abs(g).max() for g in slow)
    for got, want in zip(fast, slow):
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * scale)


def test_every_translation_parameter_receives_gradient():
    rng = np.random.default_rng(10)
    dim = 4
    p = TranslationParams.init(rng, dim, ["a", "b"], num_layers=2, num_heads=2)
    tokens = {
        "a": (Tensor(rng.normal(size=(3, dim))), np.array([0.0, 1.0, 2.0]), 1),
        "b": (Tensor(rng.normal(size=(2, dim))), np.array([0.5, 1.5]), 1),
    }
    with GradientTape() as tape:
        out = translation_forward(p, tokens, primary="a")
        loss = tsum(mul(out, Tensor(rng.normal(size=out.shape))))
    backward(tape, loss, leaves=p.params())
    dead = [i for i, t in enumerate(p.params()) if np.max(np.abs(t.grad)) == 0.0]
    assert dead == []
