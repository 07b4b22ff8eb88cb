"""Prototype bank and cross-task interaction tests.

Matching is checked against a brute-force distance sort and, byte for
byte, against the full-tensor matcher it replaced; the banks against
per-key mean loops, and the freeze guarantees (read-only arrays, no
gradient into prototypes) with exact assertions, up to a support model
and its banks that transfer matchups share.
"""

import json
import re

import numpy as np
import pytest

from tgk.ablation import run_transfer_matchup
from tgk.autodiff import GradientTape, Tensor, backward, mul, tsum
from tgk.egopack import (
    InteractionParams,
    PrototypeBank,
    activation_consensus,
    activation_histogram,
    build_prototypes,
    fuse_features,
    interaction_forward,
    knn_match,
    load_bank,
    save_bank,
)
from tgk.graph import save_rows
from tgk.synth import SynthConfig, generate_dataset
from tgk.training import TrainConfig, build_prototype_banks, run_mtl

from oracle_ops import finite_diff_check


def random_bank(rng, task="ar", p=6, dim=4):
    protos = rng.normal(size=(p, dim))
    keys = [(i // 2, i % 2) for i in range(p)]
    return PrototypeBank(task=task, prototypes=protos, keys=keys)


# ---------------------------------------------------------------------------
# bank construction
# ---------------------------------------------------------------------------


def test_build_prototypes_per_key_means():
    rng = np.random.default_rng(0)
    feats = rng.normal(size=(8, 3))
    keys = np.array([[1, 0], [0, 2], [1, 0], [0, 2], [1, 0], [2, 1], [0, 2], [2, 1]])
    bank = build_prototypes("ar", feats, keys)
    assert bank.keys == [(0, 2), (1, 0), (2, 1)]
    assert np.allclose(bank.prototypes[0], feats[[1, 3, 6]].mean(axis=0), atol=1e-12)
    assert np.allclose(bank.prototypes[1], feats[[0, 2, 4]].mean(axis=0), atol=1e-12)
    assert np.allclose(bank.prototypes[2], feats[[5, 7]].mean(axis=0), atol=1e-12)


def test_build_prototypes_validates_row_counts():
    with pytest.raises(ValueError):
        build_prototypes("ar", np.zeros((3, 2)), np.zeros((2, 2), dtype=int))


def test_bank_is_frozen_and_validated():
    bank = random_bank(np.random.default_rng(1))
    with pytest.raises(ValueError):
        bank.prototypes[0, 0] = 99.0
    with pytest.raises(ValueError):
        PrototypeBank("ar", np.zeros((2, 3)), [(0, 0)])
    with pytest.raises(ValueError):
        PrototypeBank("ar", np.zeros((2, 3)), [(1, 0), (0, 0)])


def test_bank_rejects_zero_rows(tmp_path):
    with pytest.raises(ValueError, match="^bank oscc: holds no prototypes$"):
        PrototypeBank("oscc", np.zeros((0, 8)), [])
    save_rows(tmp_path / "oscc", np.zeros((0, 8)), "num_prototypes",
              task="oscc", keys=[])
    with pytest.raises(ValueError, match="^bank oscc: holds no prototypes$"):
        load_bank(tmp_path, "oscc")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_bank_rejects_non_finite_prototypes(tmp_path, bad):
    protos = np.zeros((2, 3))
    protos[1, 2] = bad
    with pytest.raises(ValueError, match="bank pnr: prototypes hold non-finite"):
        PrototypeBank("pnr", protos, [(0, 0), (0, 1)])
    index = {"task": "pnr", "num_prototypes": 2, "dim": 3,
             "keys": [[0, 0], [0, 1]]}
    (tmp_path / "pnr.json").write_text(json.dumps(index))
    (tmp_path / "pnr.bin").write_bytes(protos.astype("<f4").tobytes())
    with pytest.raises(ValueError, match="bank pnr: "):
        load_bank(tmp_path, "pnr")


def test_bank_roundtrip_bytes(tmp_path):
    rng = np.random.default_rng(2)
    bank = random_bank(rng, task="oscc")
    save_bank(tmp_path, bank)
    loaded = load_bank(tmp_path, "oscc")
    assert loaded.task == "oscc"
    assert loaded.keys == bank.keys
    # storage quantizes to float32; reloading is stable byte for byte
    assert np.max(np.abs(loaded.prototypes - bank.prototypes)) < 1e-6
    save_bank(tmp_path / "again", loaded)
    blob_a = (tmp_path / "oscc.bin").read_bytes()
    blob_b = (tmp_path / "again" / "oscc.bin").read_bytes()
    assert blob_a == blob_b
    assert json.loads((tmp_path / "oscc.json").read_text()) == {
        "task": "oscc", "num_prototypes": bank.size, "dim": bank.dim,
        "keys": [list(key) for key in bank.keys]}
    assert not loaded.prototypes.flags.writeable


@pytest.mark.parametrize("key", ["num_prototypes", "dim", "keys"])
def test_load_bank_names_missing_sidecar_key(tmp_path, key):
    save_bank(tmp_path, random_bank(np.random.default_rng(4)))
    index = tmp_path / "ar.json"
    raw = json.loads(index.read_text())
    del raw[key]
    index.write_text(json.dumps(raw))
    with pytest.raises(ValueError, match=f"^{re.escape(str(index))}: missing key {key}$"):
        load_bank(tmp_path, "ar")


def test_load_bank_validates_byte_length(tmp_path):
    bank = random_bank(np.random.default_rng(3))
    save_bank(tmp_path, bank)
    blob = (tmp_path / "ar.bin").read_bytes()
    (tmp_path / "ar.bin").write_bytes(blob + b"\x00\x00\x00\x00")
    with pytest.raises(ValueError):
        load_bank(tmp_path, "ar")


# ---------------------------------------------------------------------------
# nearest-prototype matching
# ---------------------------------------------------------------------------


def test_knn_match_brute_force():
    rng = np.random.default_rng(4)
    bank = random_bank(rng, p=9, dim=5)
    x = rng.normal(size=(20, 5))
    k = 4
    got = knn_match(x, bank, k)
    for i in range(20):
        d = np.sum((bank.prototypes - x[i]) ** 2, axis=1)
        expected = np.argsort(d, kind="stable")[:k]
        assert np.array_equal(got[i], expected)


def test_knn_match_tie_breaks_to_lower_index():
    protos = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    bank = PrototypeBank("ar", protos, [(0, 0), (0, 1), (1, 0)])
    idx = knn_match(np.array([[1.0, 0.0]]), bank, 2)
    assert np.array_equal(idx[0], [0, 2])


def test_knn_match_caps_k_at_bank_size():
    bank = random_bank(np.random.default_rng(5), p=3)
    idx = knn_match(np.zeros((2, 4)), bank, 10)
    assert idx.shape == (2, 3)


def test_knn_match_rejects_negative_k():
    bank = random_bank(np.random.default_rng(5), p=3)
    with pytest.raises(ValueError, match="k must be >= 0, got -1"):
        knn_match(np.zeros((2, 4)), bank, -1)
    assert knn_match(np.zeros((2, 4)), bank, 0).shape == (2, 0)


def full_tensor_knn_match(x: np.ndarray, bank: PrototypeBank, k: int
                          ) -> np.ndarray:
    """The (N, P, D) difference-tensor matcher the screened ``knn_match``
    replaced, kept verbatim as its oracle."""
    x = np.asarray(x, dtype=np.float64)
    k = min(k, bank.size)
    d2 = ((x[:, None, :] - bank.prototypes[None, :, :]) ** 2).sum(axis=2)
    order = np.argsort(d2, axis=1, kind="stable")
    return order[:, :k]


def matching_problems(st):
    """(queries, bank, k): random reals over six orders of magnitude,
    small integers (exact distance ties), or prototypes duplicated up to
    1e-12 with queries 1e-9 from them, far from the origin (near-ties the
    GEMM screen cannot resolve on its own)."""

    @st.composite
    def build(draw):
        n, p = draw(st.integers(0, 40)), draw(st.integers(1, 30))
        d, k = draw(st.integers(1, 40)), draw(st.integers(0, 35))
        kind = draw(st.sampled_from(("reals", "ints", "near")))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        if kind == "reals":
            scale = 10.0 ** rng.uniform(-3, 3)
            protos, x = rng.normal(size=(p, d)) * scale, rng.normal(size=(n, d))
        elif kind == "ints":
            protos = rng.integers(-2, 3, size=(p, d)).astype(np.float64)
            x = rng.integers(-2, 3, size=(n, d)).astype(np.float64)
        else:
            protos = np.repeat(rng.normal(size=(p, d)), 3, axis=0)[:p]
            protos += rng.normal(size=(p, d)) * 1e-12 + 100.0
            x = protos[rng.integers(0, p, size=n)] + rng.normal(size=(n, d)) * 1e-9
        bank = PrototypeBank("ar", protos, [(i, 0) for i in range(p)])
        return x, bank, k

    return build()


def test_knn_match_equals_full_tensor_matcher():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    # Shrinking is off: with derandomized generation a failing test still
    # reports the same generated input every run.
    @hyp.settings(max_examples=300, deadline=None, derandomize=True,
                  database=None,
                  phases=[p for p in hyp.Phase if p is not hyp.Phase.shrink])
    @hyp.given(matching_problems(st))
    def check(problem):
        x, bank, k = problem
        got = knn_match(x, bank, k)
        expected = full_tensor_knn_match(x, bank, k)
        assert got.shape == expected.shape
        assert np.array_equal(got, expected)

    check()


def exact_rows(monkeypatch, x, bank, k) -> tuple[np.ndarray, int]:
    """``knn_match(x, bank, k)`` and how many rows took the exact path:
    the rows its ``lexsort`` orders, 0 when it never sorts."""
    rows = []
    real = np.lexsort

    def spy(keys):
        rows.append(len(np.unique(keys[-1])))
        return real(keys)

    monkeypatch.setattr(np, "lexsort", spy)
    got = knn_match(x, bank, k)
    monkeypatch.setattr(np, "lexsort", real)
    return got, sum(rows)


def test_knn_match_screened_order_at_benchmark_size(monkeypatch):
    """256 queries against 48 prototypes at k = 8, the transfer arm's
    largest call: most rows keep their screened order, byte for byte the
    full-tensor matcher's."""
    rng = np.random.default_rng(21)
    bank = PrototypeBank("ar", rng.normal(size=(48, 32)),
                         [(i, 0) for i in range(48)])
    x = rng.normal(size=(256, 32))
    got, exact = exact_rows(monkeypatch, x, bank, 8)
    assert np.array_equal(got, full_tensor_knn_match(x, bank, 8))
    assert exact < 256 // 4


def test_knn_match_exact_path_on_near_duplicate_bank(monkeypatch):
    """Prototypes duplicated up to 1e-12 sit closer than the screen can
    tell apart, so every row takes the exact distance and its tie rule."""
    rng = np.random.default_rng(22)
    protos = np.repeat(rng.normal(size=(16, 32)), 3, axis=0)
    protos += rng.normal(size=protos.shape) * 1e-12 + 100.0
    bank = PrototypeBank("ar", protos, [(i, 0) for i in range(48)])
    x = protos[rng.integers(0, 48, size=64)] + rng.normal(size=(64, 32)) * 1e-9
    for k in (8, 48):
        got, exact = exact_rows(monkeypatch, x, bank, k)
        assert np.array_equal(got, full_tensor_knn_match(x, bank, k))
        assert exact == 64


def test_prototype_mean_bytes():
    """The interaction's prototype mean keeps the bytes of
    ``prototypes[idx].mean(axis=1)`` (every config dim is even, so >= 2)."""
    rng = np.random.default_rng(23)
    for dim, p, n, k in ((2, 5, 7, 3), (32, 48, 256, 8), (12, 9, 40, 9),
                         (6, 30, 1, 16)):
        bank = PrototypeBank("ar", rng.normal(size=(p, dim)) * 10.0,
                             [(i, 0) for i in range(p)])
        params = InteractionParams.init(rng, dim, num_layers=1)
        x = rng.normal(size=(n, dim))
        got = interaction_forward(params, Tensor(x), bank, k).data
        ((w_self, w_proto),) = params.layers
        pm = bank.prototypes[knn_match(x, bank, k)].mean(axis=1)
        assert np.array_equal(got, x @ w_self.data + pm @ w_proto.data)


# ---------------------------------------------------------------------------
# interaction stack
# ---------------------------------------------------------------------------


def test_interaction_forward_oracle_no_rematch():
    rng = np.random.default_rng(6)
    bank = random_bank(rng, p=5, dim=3)
    p = InteractionParams.init(rng, 3, num_layers=2)
    x = rng.normal(size=(4, 3))
    got = interaction_forward(p, Tensor(x), bank, k=2, rematch=False).data
    idx = knn_match(x, bank, 2)
    cur = x.copy()
    for w_self, w_proto in p.layers:
        pm = bank.prototypes[idx].mean(axis=1)
        cur = cur @ w_self.data + pm @ w_proto.data
    assert np.allclose(got, cur, atol=1e-12)


def test_interaction_forward_oracle_with_rematch():
    rng = np.random.default_rng(7)
    bank = random_bank(rng, p=5, dim=3)
    p = InteractionParams.init(rng, 3, num_layers=3)
    x = rng.normal(size=(4, 3))
    got = interaction_forward(p, Tensor(x), bank, k=2, rematch=True).data
    cur = x.copy()
    for w_self, w_proto in p.layers:
        idx = knn_match(cur, bank, 2)
        pm = bank.prototypes[idx].mean(axis=1)
        cur = cur @ w_self.data + pm @ w_proto.data
    assert np.allclose(got, cur, atol=1e-12)


def test_interaction_gradients_reach_weights_not_prototypes():
    rng = np.random.default_rng(8)
    bank = random_bank(rng, p=5, dim=3)
    before = bank.prototypes.copy()
    p = InteractionParams.init(rng, 3, num_layers=2)
    x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    with GradientTape() as tape:
        out = interaction_forward(p, x, bank, k=2)
        loss = tsum(out)
    backward(tape, loss, leaves=p.params() + [x])
    for t in p.params() + [x]:
        assert np.max(np.abs(t.grad)) > 0.0
    # the bank never entered the tape and its values never moved
    assert np.array_equal(bank.prototypes, before)
    assert all(t.data is not bank.prototypes
               for r in tape.records for t in r.inputs)


def test_interaction_gradients_finite_difference():
    rng = np.random.default_rng(9)
    bank = random_bank(rng, p=6, dim=3)
    p = InteractionParams.init(rng, 3, num_layers=2)
    x = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
    weights = Tensor(rng.normal(size=(3, 3)))

    def build_loss():
        # fixed matching keeps the loss smooth for the numeric check
        return tsum(mul(interaction_forward(p, x, bank, 2, rematch=False),
                        weights))

    assert finite_diff_check(build_loss, p.params() + [x], rel_tol=1e-5) < 1e-5


def test_fuse_features_mean_and_identity():
    rng = np.random.default_rng(10)
    a = Tensor(rng.normal(size=(3, 4)))
    b = Tensor(rng.normal(size=(3, 4)))
    c = Tensor(rng.normal(size=(3, 4)))
    fused = fuse_features([a, b, c]).data
    assert np.allclose(fused, (a.data + b.data + c.data) / 3.0, atol=1e-12)
    solo = fuse_features([a]).data
    assert np.allclose(solo, a.data, atol=1e-15)
    with pytest.raises(ValueError):
        fuse_features([])


# ---------------------------------------------------------------------------
# activation diagnostics
# ---------------------------------------------------------------------------


def test_activation_histogram_counts():
    bank = random_bank(np.random.default_rng(11), p=4)
    idx = np.array([[0, 1], [0, 3], [0, 1]])
    hist = activation_histogram(idx, bank)
    assert hist == [("0_0", 3), ("0_1", 2), ("1_0", 0), ("1_1", 1)]


def test_activation_consensus_shared_keys():
    keys = [(0, 0), (0, 1), (1, 0)]
    bank_a = PrototypeBank("ar", np.zeros((3, 2)), keys)
    bank_b = PrototypeBank("oscc", np.zeros((3, 2)), keys)
    matches = {
        "ar": np.array([[0, 1], [0, 1]]),
        "oscc": np.array([[0, 1], [1, 2]]),
    }
    out = activation_consensus(matches, {"ar": bank_a, "oscc": bank_b})
    assert len(out) == 1
    a, b, score = out[0]
    assert (a, b) == ("ar", "oscc")
    # row 0 shares both keys, row 1 shares only (0, 1): mean of 1 and 0.5
    assert abs(score - 0.75) < 1e-12


# ---------------------------------------------------------------------------
# one support phase shared by several transfer matchups
# ---------------------------------------------------------------------------


def test_matchups_share_a_support_without_writing_to_it():
    # the novel arms copy the support backbone and deep-copy its necks, so
    # an lta matchup leaves the support model and banks as they were, and
    # an mq matchup on them equals one on a freshly trained support
    ds = generate_dataset(SynthConfig(
        num_train_videos=4, num_val_videos=2, segments_per_video=16, dim=12,
        num_verbs=4, num_nouns=3, noise=0.1, lta_steps=3, seed=5))
    cfg = TrainConfig(epochs=2, warmup_epochs=1, batch_videos=4, seed=0)
    tasks = ("ar", "oscc", "pnr")

    def support_phase():
        support = run_mtl(tasks, ds, cfg)
        return support, build_prototype_banks(support, ds, tasks)

    support, banks = support_phase()

    def snapshot():
        return ([(p.data.tobytes(), p.requires_grad)
                 for p in support.params()],
                {t: (b.keys, b.prototypes.tobytes())
                 for t, b in banks.items()})

    before = snapshot()
    run_transfer_matchup("lta", ds, cfg, support, banks, novel_train_videos=2)
    shared = run_transfer_matchup("mq", ds, cfg, support, banks,
                                  novel_train_videos=2)[0]
    assert snapshot() == before
    alone = run_transfer_matchup("mq", ds, cfg, *support_phase(),
                                 novel_train_videos=2)[0]
    assert shared == alone
