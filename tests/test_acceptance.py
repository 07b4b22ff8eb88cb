"""Release gate: nine numbered checks covering the package end to end.

Each check prints one ``[PASS]``/``[FAIL]`` line with its measured
margin. The heavyweight empirical checks (order separation, pyramid
comparison, transfer matchup) rerun full training recipes and take a
few minutes combined on one CPU core; everything else is exact algebra
or oracle comparison.

  1  gradient correctness of every trainable unit (rel err < 1e-4)
  2  time-difference layer algebra, exact to 1e-12
  3  order-sensitivity separation across layer kinds
  4  sign/gate component ablation bands
  5  coarsening law: node counts and per-stage edge windows
  6  localization pipeline: decode/suppression/mAP oracles + pyramid gap
  7  cross-task transfer beats its baselines with assets frozen
  8  metric and mask oracles (edit distance, brute-force mask)
  9  command-line determinism (byte-identical metrics)
"""

import json
import time
from functools import lru_cache

import numpy as np

from tgk.ablation import (
    OrderProbeConfig, run_ablation_grid, run_order_separation,
    run_transfer_matchup,
)
from tgk.autodiff import GradientTape, Tensor, add, backward, mul, tsum
from tgk.cli import main as cli_main
from tgk.egopack import InteractionParams, PrototypeBank, interaction_forward
from tgk.graph import VideoCache, build_graph
from tgk.hierarchy import BackboneConfig, BackboneParams, backbone_forward
from tgk.layers import (
    LAYER_KINDS, TDGC_VARIANTS, TdgcParams, sinusoidal_pe, tdgc_forward,
)
from tgk.metrics import (
    edit_distance, localization_error, map_at_iou, soft_nms, top1_accuracy,
)
from tgk.synth import SynthConfig, generate_dataset
from tgk.tasks import (
    LtaParams, MlpParams, MqParams, ScorerParams, lta_forward, mlp_forward,
    mq_decode, mq_forward, mq_targets, neck_forward, scorer_forward,
)
from tgk.training import TrainConfig, build_prototype_banks, run_mtl
from tgk.translation import TranslationParams, build_mask, translation_forward

from oracle_ops import finite_diff_check, iou_1d

_CACHE = {}


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] check {num}: {detail}")
    assert ok, f"check {num}: {detail}"


def _weighted(out: Tensor, w: np.ndarray) -> Tensor:
    return tsum(mul(out, Tensor(w)))


def _nudge_gate(tensors, rng) -> None:
    """Move ReLU-gate weights off their exact pass-through init so the
    finite-difference probe does not sit on a kink."""
    for t in tensors:
        t.data = t.data + np.abs(rng.normal(size=t.data.shape)) * 0.3 + 0.05


def _random_graph(rng, n=8, d=6):
    feats = rng.normal(size=(n, d))
    pos = np.sort(rng.uniform(0.0, 6.0, size=n))
    return build_graph(feats, pos, [0, n], threshold_s=2.5, stage=1)


# ---------------------------------------------------------------------------
# check 1: gradient correctness
# ---------------------------------------------------------------------------


def test_check_01_gradient_correctness():
    t0 = time.monotonic()
    d = 6
    worst = 0.0
    failures = []

    def probe(name, make):
        nonlocal worst
        for i in range(20):
            rng = np.random.default_rng(7000 + i)
            params, build_loss = make(rng)
            try:
                err = finite_diff_check(build_loss, params, rel_tol=1e-4,
                                        max_entries=3, rng=rng)
                worst = max(worst, err)
            except AssertionError as exc:
                failures.append(f"{name}[{i}]: {exc}")
                return

    def layer_case(kind):
        def make(rng):
            g = _random_graph(rng, d=d)
            x_data = g.features.copy()
            if LAYER_KINDS[kind].adds_time_encoding:
                x_data = x_data + sinusoidal_pe(g.positions_s, d)
            x = Tensor(x_data)
            p = LAYER_KINDS[kind].init(rng, d, d)
            if kind == "tdgc":
                _nudge_gate([p.gate_w, p.gate_b], rng)
            w = rng.normal(size=(g.num_nodes, d))
            return p.params(), lambda: _weighted(
                LAYER_KINDS[kind].forward(p, g, x), w)
        return make

    for kind in sorted(LAYER_KINDS):
        probe(kind, layer_case(kind))

    def neck(rng):
        x = Tensor(rng.normal(size=(7, d)))
        p = MlpParams.init(rng, d, d, d)
        w = rng.normal(size=(7, d))
        return p.params(), lambda: _weighted(neck_forward(p, x), w)
    probe("neck", neck)

    def classifier(rng):
        x = Tensor(rng.normal(size=(7, d)))
        p = MlpParams.init(rng, d, d, 4)
        w = rng.normal(size=(7, 4))
        return p.params(), lambda: _weighted(mlp_forward(p, x), w)
    probe("classifier", classifier)

    def scorer(rng):
        x = Tensor(rng.normal(size=(7, d)))
        p = ScorerParams.init(rng, d)
        w = rng.normal(size=(7, 1))
        return p.params(), lambda: _weighted(scorer_forward(p, x), w)
    probe("scorer", scorer)

    def detection_head(rng):
        x = Tensor(rng.normal(size=(7, d)))
        p = MqParams.init(rng, d, 3)
        ws = rng.normal(size=(7, 3))
        wo = rng.normal(size=(7, 2))
        def loss():
            scores, offsets = mq_forward(p, x, stage=2)
            return add(_weighted(scores, ws), _weighted(offsets, wo))
        return p.params(), loss
    probe("detection-head", detection_head)

    def forecast_head(rng):
        ctx = Tensor(rng.normal(size=(2, d)))
        p = LtaParams.init(rng, d, 4, 3, 3)
        _nudge_gate([p.refine1.gate_w, p.refine1.gate_b,
                     p.refine2.gate_w, p.refine2.gate_b], rng)
        wv = rng.normal(size=(6, 4))
        wn = rng.normal(size=(6, 3))
        def loss():
            vl, nl = lta_forward(p, ctx)
            return add(_weighted(vl, wv), _weighted(nl, wn))
        return p.params(), loss
    probe("forecast-head", forecast_head)

    def interaction(rng):
        x = Tensor(rng.normal(size=(7, d)))
        bank = PrototypeBank("ar", rng.normal(size=(5, d)),
                             [(i, 0) for i in range(5)])
        p = InteractionParams.init(rng, d, 2)
        w = rng.normal(size=(7, d))
        return p.params(), lambda: _weighted(
            interaction_forward(p, x, bank, 3, rematch=False), w)
    probe("interaction", interaction)

    def encoder(rng):
        dim = 8
        p = TranslationParams.init(rng, dim, ["a", "b"], num_layers=1,
                                   num_heads=2)
        tokens = {
            "a": (Tensor(rng.normal(size=(3, dim))),
                  np.array([0.5, 1.5, 2.5]), 1),
            "b": (Tensor(rng.normal(size=(2, dim))),
                  np.array([1.0, 3.0]), 2),
        }
        w = rng.normal(size=(3, dim))
        return p.params(), lambda: _weighted(
            translation_forward(p, tokens, "a"), w)
    probe("masked-encoder", encoder)

    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 120.0
    detail = (f"worst rel err {worst:.2e} < 1e-4 over 20 instances per unit, "
              f"{elapsed:.0f}s < 120s")
    if failures:
        detail = "; ".join(failures[:3])
    _report(1, ok, detail)


# ---------------------------------------------------------------------------
# check 2: time-difference layer algebra
# ---------------------------------------------------------------------------


def test_check_02_algebraic_identities():
    rng = np.random.default_rng(11)
    d = 5
    p = TdgcParams.init(rng, d, d)
    _nudge_gate([p.gate_w, p.gate_b], rng)
    tol = 1e-12
    margins = []

    # empty neighborhood: an isolated node reduces to the root projection
    feats = rng.normal(size=(3, d))
    g = build_graph(feats, np.array([0.0, 1.0, 50.0]), [0, 3], 2.0)
    out = tdgc_forward(p, g, Tensor(feats)).data
    root = feats @ p.w_root.data + p.b_root.data
    margins.append(np.abs(out[2] - root[2]).max())

    # symmetric neighbors with equal features cancel exactly
    sym = rng.normal(size=(3, d))
    sym[2] = sym[0]
    g = build_graph(sym, np.array([0.0, 1.0, 2.0]), [0, 3], 1.5)
    out = tdgc_forward(p, g, Tensor(sym)).data
    root = sym @ p.w_root.data + p.b_root.data
    margins.append(np.abs(out[1] - root[1]).max())

    # shifting every timestamp by a constant changes nothing
    feats = rng.normal(size=(5, d))
    pos = np.array([0.0, 1.0, 2.0, 4.0, 7.0])
    a = tdgc_forward(p, build_graph(feats, pos, [0, 5], 2.5),
                     Tensor(feats)).data
    b = tdgc_forward(p, build_graph(feats, pos + 13.0, [0, 5], 2.5),
                     Tensor(feats)).data
    margins.append(np.abs(a - b).max())

    # reflecting time negates the neighbor term and keeps the root
    root = feats @ p.w_root.data + p.b_root.data
    fwd = tdgc_forward(p, build_graph(feats, pos, [0, 5], 2.5),
                       Tensor(feats)).data - root
    rev = tdgc_forward(p, build_graph(feats, -pos, [0, 5], 2.5),
                       Tensor(feats)).data - root
    margins.append(np.abs(fwd + rev).max())

    worst = max(margins)
    _report(2, worst <= tol,
            f"identity/cancellation/shift/reflection all within {worst:.1e} "
            f"<= 1e-12")


# ---------------------------------------------------------------------------
# checks 3 and 4: ordering probe (shared runs)
# ---------------------------------------------------------------------------


def _order_results():
    if "order" not in _CACHE:
        t0 = time.monotonic()
        probe = OrderProbeConfig()
        kinds = ["tdgc", "sgcn", "sage-pe", "sage", "gcn", "gat"]
        # one sweep: checks 3 and 4 read the kinds and the tdgc variants
        separation = run_order_separation([*kinds, *TDGC_VARIANTS],
                                          [0, 1, 2], probe)
        _CACHE["order"] = (separation, time.monotonic() - t0)
    return _CACHE["order"]


def test_check_03_order_separation():
    separation, elapsed = _order_results()
    means = {k: v["mean"] for k, v in separation.items()}
    pi = max(means["gcn"], means["gat"], means["sage"])
    ok = (means["tdgc"] >= 90.0 and means["sgcn"] >= 90.0
          and means["sage-pe"] >= 70.0
          and all(40.0 <= means[k] <= 60.0 for k in ("gcn", "gat", "sage"))
          and means["tdgc"] >= means["sgcn"] >= means["sage-pe"] > pi
          and elapsed < 600.0)
    _report(3, ok,
            "seed-mean accuracy " +
            " ".join(f"{k}={means[k]:.1f}" for k in
                     ("tdgc", "sgcn", "sage-pe", "sage", "gcn", "gat")) +
            f" ({elapsed:.0f}s < 600s)")


def test_check_04_component_ablation():
    separation, _ = _order_results()
    means = {k: v["mean"] for k, v in separation.items()}
    ok = (40.0 <= means["tdgc-no-sign"] <= 60.0
          and means["tdgc-no-gate"] >= 85.0
          and means["tdgc"] - means["tdgc-no-gate"] <= 5.0)
    _report(4, ok,
            f"tdgc={means['tdgc']:.1f} "
            f"tdgc-no-sign={means['tdgc-no-sign']:.1f} (chance band) "
            f"tdgc-no-gate={means['tdgc-no-gate']:.1f} "
            f"(>= 85, within 5 of tdgc)")


# ---------------------------------------------------------------------------
# check 5: coarsening law
# ---------------------------------------------------------------------------


def test_check_05_hierarchy_coarsening_law():
    rng = np.random.default_rng(3)
    d, n = 6, 64
    cfg = BackboneConfig(d_in=d, d_model=d, num_stages=4, threshold_s=2.0)
    params = BackboneParams.init(rng, cfg)
    g = build_graph(rng.normal(size=(n, d)), np.arange(n) + 0.5, [0, n],
                    cfg.threshold_s)
    stages = backbone_forward(params, cfg, g)
    counts = [s.graph.num_nodes for s in stages]
    ok = counts == [64, 32, 16, 8]
    for s in stages:
        window = 2.0 * 2.0 ** (s.graph.stage - 1)
        pos = s.graph.positions_s
        want = sorted((i, j) for i in range(len(pos)) for j in range(len(pos))
                      if i != j and abs(pos[i] - pos[j]) < window)
        got = sorted(map(tuple, s.graph.edges.tolist()))
        ok = ok and got == want
    _report(5, ok, f"node counts {counts} == [64, 32, 16, 8]; per-stage "
                   f"edges equal brute force at doubling windows")


# ---------------------------------------------------------------------------
# check 6: localization pipeline
# ---------------------------------------------------------------------------


def _soft_nms_oracle(intervals, scores, sigma=2.0, floor=1e-3):
    items = [{"i": i, "s": float(s)} for i, s in enumerate(scores)
             if s >= floor]
    kept = []
    while items:
        items.sort(key=lambda e: (-e["s"], intervals[e["i"]][0], e["i"]))
        best = items.pop(0)
        kept.append((best["i"], best["s"]))
        nxt = []
        for e in items:
            ov = iou_1d(intervals[best["i"]], intervals[e["i"]])
            e["s"] *= float(np.exp(-(ov * ov) / sigma))
            if e["s"] >= floor:
                nxt.append(e)
        items = nxt
    return (np.array([i for i, _ in kept], dtype=np.intp),
            np.array([s for _, s in kept]))


def _map_oracle(det_i, det_s, det_c, det_v, gt_i, gt_c, gt_v,
                thresholds=(0.1, 0.2, 0.3, 0.4, 0.5)):
    det_i, gt_i = np.asarray(det_i, dtype=float), np.asarray(gt_i, dtype=float)
    det_s = np.asarray(det_s, dtype=float)
    det_c, gt_c = np.asarray(det_c), np.asarray(gt_c)
    det_v, gt_v = np.asarray(det_v), np.asarray(gt_v)
    out = {}
    for thr in thresholds:
        aps = []
        for cls in sorted(set(gt_c.tolist())):
            total_gt = int((gt_c == cls).sum())
            ranked = sorted(np.nonzero(det_c == cls)[0],
                            key=lambda i: -det_s[i])
            if not ranked:
                aps.append(0.0)
                continue
            used = set()
            hits, curve = 0, []
            for rank, i in enumerate(ranked, start=1):
                best_iou, best_gt = -1.0, None
                for j in np.nonzero((gt_c == cls) & (gt_v == det_v[i]))[0]:
                    if j in used:
                        continue
                    ov = iou_1d(det_i[i], gt_i[j])
                    if ov > best_iou:
                        best_iou, best_gt = ov, j
                if best_gt is not None and best_iou >= thr:
                    used.add(best_gt)
                    hits += 1
                curve.append((hits / total_gt, hits / rank))
            ap, prev_r = 0.0, 0.0
            for k, (r, _) in enumerate(curve):
                peak = max(pv for _, pv in curve[k:])
                ap += (r - prev_r) * peak
                prev_r = r
            aps.append(ap)
        out[float(thr)] = 100.0 * float(np.mean(aps))
    return {"per_threshold": out, "mean": float(np.mean(list(out.values())))}


def test_check_06_localization_pipeline():
    rng = np.random.default_rng(21)

    # (a) supervision targets pushed back through the decoder reproduce
    # the ground truth; first on an exactly representable grid, then on
    # random instances within 1e-9
    positions = np.arange(16) * 0.5 + 0.25
    segments = np.array([[1.0, 3.5], [5.25, 9.75]])
    labels = np.array([2, 0])
    cls_t, off_t, posm = mq_targets(positions, 2, segments, labels, 3)
    ivals, _, cvals = mq_decode(positions[posm], cls_t[posm],
                                off_t[posm] * 2.0, (0.0, 30.0), min_score=0.5)
    exact = len(ivals) == int(posm.sum())
    for row, cls in zip(ivals, cvals):
        match = np.nonzero(np.all(segments == row, axis=1))[0]
        exact = exact and len(match) == 1 and labels[match[0]] == cls

    roundtrip = True
    for _ in range(10):
        starts = np.sort(rng.uniform(0, 20, size=3))
        segs = np.stack([starts, starts + rng.uniform(1, 4, size=3)], axis=1)
        labs = rng.integers(0, 4, size=3)
        pos = np.linspace(0.25, 24.0, 32)
        stage = int(rng.integers(1, 4))
        cls_t, off_t, pm = mq_targets(pos, stage, segs, labs, 4)
        scale = 2.0 ** (stage - 1)
        iv, _, cv = mq_decode(pos[pm], cls_t[pm], off_t[pm] * scale,
                              (0.0, 30.0), min_score=0.5)
        roundtrip = roundtrip and len(iv) == int(pm.sum())
        for row, cls in zip(iv, cv):
            hit = np.any(np.all(np.isclose(segs, row, atol=1e-9), axis=1))
            roundtrip = roundtrip and hit and cls in labs

    # (b) suppression and mAP against independent oracles, 50 random
    # micro-instances with at most 8 predictions
    oracle_ok = True
    for inst in range(50):
        r = np.random.default_rng(500 + inst)
        m = int(r.integers(1, 9))
        start = r.uniform(0, 10, size=m)
        iv = np.stack([start, start + r.uniform(0.5, 4.0, size=m)], axis=1)
        sc = r.uniform(0.05, 1.0, size=m)
        keep, decayed = soft_nms(iv, sc)
        okeep, odec = _soft_nms_oracle(iv, sc, sigma=2.0)
        oracle_ok = (oracle_ok and np.array_equal(keep, okeep)
                     and np.allclose(decayed, odec, atol=1e-12))

        n_gt = int(r.integers(1, 5))
        gstart = r.uniform(0, 10, size=n_gt)
        gt_iv = np.stack([gstart, gstart + r.uniform(0.5, 4.0, size=n_gt)],
                         axis=1)
        gt_c = r.integers(0, 3, size=n_gt)
        gt_v = r.integers(0, 2, size=n_gt)
        det_c = r.integers(0, 3, size=m)
        det_v = r.integers(0, 2, size=m)
        got = map_at_iou(iv, sc, det_c, det_v, gt_iv, gt_c, gt_v)
        want = _map_oracle(iv, sc, det_c, det_v, gt_iv, gt_c, gt_v)
        oracle_ok = (oracle_ok
                     and abs(got["mean"] - want["mean"]) < 1e-10
                     and all(abs(got["per_threshold"][t] -
                                 want["per_threshold"][t]) < 1e-10
                             for t in want["per_threshold"]))

    # (c) trained pyramid: the time-aware layer must clear the strongest
    # permutation-invariant baseline by 3 mAP points, seed-mean of 3
    data_cfg = SynthConfig(num_train_videos=40, num_val_videos=12,
                           segments_per_video=32, noise=0.1)
    train_cfg = TrainConfig(epochs=240, warmup_epochs=5, base_lr=1e-3)
    res = {r["layer_kind"]: r["map_avg"] for r in run_ablation_grid(
        data_cfg, train_cfg, layer_kinds=("tdgc", "sage"), seeds=(0, 1, 2))}
    gap = res["tdgc"] - res["sage"]

    ok = exact and roundtrip and oracle_ok and gap >= 3.0
    _report(6, ok,
            f"decode roundtrip exact; suppression+mAP oracles match on 50 "
            f"instances; pyramid mAP tdgc={res['tdgc']:.2f} vs "
            f"sage={res['sage']:.2f} (gap {gap:+.2f} >= 3)")


# ---------------------------------------------------------------------------
# check 7: cross-task transfer
# ---------------------------------------------------------------------------


def _blocking_factor_holds(model, novel_state, video) -> bool:
    """Backbone gradients through the interaction fusion must equal exactly
    1/(1+num_support) of the gradients through the plain novel neck:
    support branches are detached, fusion is an arithmetic mean."""
    rng = np.random.default_rng(13)
    leaves = model.backbone.params()
    neck = model.branches[novel_state.novel].neck
    weights = None

    def grads(fused_path):
        nonlocal weights
        with GradientTape() as tape:
            stages = model.forward_backbone([video])
            if fused_path:
                feats = novel_state.stage_features(stages, [video],
                                                   VideoCache())
            else:
                feats = [neck_forward(neck, s.features) for s in stages]
            if weights is None:
                weights = [rng.normal(size=f.shape) for f in feats]
            loss = None
            for f, w in zip(feats, weights):
                term = _weighted(f, w)
                loss = term if loss is None else add(loss, term)
        backward(tape, loss, leaves=leaves)
        # the second sweep rebinds every .grad, so keep copies
        return [p.grad.copy() for p in leaves]

    g_on = grads(True)
    g_off = grads(False)
    factor = 1.0 / (1.0 + len(novel_state.interactions))
    some_signal = any(np.abs(g).sum() > 0 for g in g_off)
    return some_signal and all(
        np.allclose(a, factor * b, atol=1e-12) for a, b in zip(g_on, g_off))


def test_check_07_transfer_trend():
    """Per seed, trains one support model and its banks, then runs the
    library's transfer recipe for each novel task on them. The banks count
    as frozen when rebuilding them from the support model, after both
    matchups' arms trained and evaluated, gives the same keys and bytes."""
    support_tasks = ("ar", "oscc", "pnr")
    matchups = (("mq", "map_avg", True), ("lta", "mean_ed", False))
    wins = {task: 0 for task, _, _ in matchups}
    ok = True
    for seed in (0, 1, 2):
        ds = generate_dataset(SynthConfig(
            num_train_videos=40, num_val_videos=16, segments_per_video=32,
            noise=0.25, seed=seed))
        cfg = TrainConfig(epochs=100, warmup_epochs=10, base_lr=1e-3,
                          seed=seed)
        support = run_mtl(support_tasks, ds, cfg)
        banks = build_prototype_banks(support, ds, support_tasks)
        for task, key, higher in matchups:
            arms, ego_model, ego_state = run_transfer_matchup(
                task, ds, cfg, support, banks, novel_train_videos=8)
            blocked = _blocking_factor_holds(ego_model, ego_state, ds.val[0])
            vals = {a: arms[a][key] for a in arms}
            if higher:
                win = (vals["egopack"] >= vals["single"]
                       and vals["egopack"] >= vals["mtl_ft"])
            else:
                win = (vals["egopack"] <= vals["single"]
                       and vals["egopack"] <= vals["mtl_ft"])
            wins[task] += win
            ok = ok and blocked
        rebuilt = build_prototype_banks(support, ds, support_tasks)
        frozen = sorted(banks) == sorted(rebuilt) and all(
            banks[t].keys == rebuilt[t].keys
            and banks[t].prototypes.tobytes()
            == rebuilt[t].prototypes.tobytes() for t in banks)
        ok = ok and frozen
    ok = ok and all(w >= 2 for w in wins.values())
    _report(7, ok,
            "novel-task wins " +
            ", ".join(f"{task}:{w}/3 seeds" for task, w in wins.items()) +
            "; banks byte-identical; backbone gradients blocked on "
            "support branches")


# ---------------------------------------------------------------------------
# check 8: metric and mask oracles
# ---------------------------------------------------------------------------


def _lev_oracle(a, b):
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


def test_check_08_metric_and_mask_oracles():
    rng = np.random.default_rng(31)

    ed_ok = True
    for _ in range(500):
        cands = [tuple(rng.integers(0, 8, size=20).tolist()) for _ in range(5)]
        target = tuple(rng.integers(0, 8, size=20).tolist())
        got = edit_distance(cands, target)
        want = min(_lev_oracle(c, target) for c in cands) / 20.0
        ed_ok = ed_ok and got == want

    pred = rng.integers(0, 5, size=200)
    true = rng.integers(0, 5, size=200)
    top1_ok = top1_accuracy(pred, true) == 100.0 * float((pred == true).mean())
    pt = rng.uniform(0, 30, size=50)
    tt = rng.uniform(0, 30, size=50)
    loc_ok = localization_error(pt, tt) == float(np.abs(pt - tt).mean())

    mask_ok = True
    for _ in range(30):
        k = int(rng.integers(2, 12))
        times = rng.uniform(0, 20, size=k)
        stages = rng.integers(1, 4, size=k)
        got = build_mask(times, stages)
        want = np.zeros((k, k), dtype=bool)
        for i in range(k):
            for j in range(k):
                want[i, j] = (i == j or
                              abs(times[i] - times[j]) <= 2.0 ** stages[i])
        mask_ok = mask_ok and np.array_equal(got, want)
    # asymmetric mixed-stage case: the coarse row admits the fine token
    # across a gap the fine row cannot cross
    m = build_mask(np.array([0.0, 3.0]), np.array([1, 2]))
    mask_ok = mask_ok and not m[0, 1] and m[1, 0]

    # a token no one admits cannot influence the others, end to end
    dim = 8
    p = TranslationParams.init(np.random.default_rng(5), dim, ["a", "b"])
    base_b = np.random.default_rng(6).normal(size=(2, dim))
    tokens = {
        "a": (Tensor(np.random.default_rng(7).normal(size=(3, dim))),
              np.array([0.0, 1.0, 2.0]), 1),
        "b": (Tensor(base_b.copy()), np.array([1.5, 500.0]), 1),
    }
    ref = translation_forward(p, tokens, "a").data.copy()
    bumped = base_b.copy()
    bumped[1] += 25.0
    tokens["b"] = (Tensor(bumped), np.array([1.5, 500.0]), 1)
    drift = np.abs(translation_forward(p, tokens, "a").data - ref).max()
    influence_ok = drift < 1e-10

    ok = ed_ok and top1_ok and loc_ok and mask_ok and influence_ok
    _report(8, ok,
            f"edit distance == DP oracle on 500 (K=5, Z=20) instances; "
            f"top1/localization exact; mask == brute force incl. asymmetric "
            f"stages; masked-token influence {drift:.1e} < 1e-10")


# ---------------------------------------------------------------------------
# check 9: command-line determinism
# ---------------------------------------------------------------------------


def test_check_09_cli_determinism(tmp_path):
    data = tmp_path / "data"
    assert cli_main(["gen-data", "--out", str(data), "--train-videos", "6",
                     "--val-videos", "2", "--segments", "16", "--dim", "12",
                     "--verbs", "4", "--nouns", "3", "--seed", "5"]) == 0
    flags = ["--epochs", "2", "--warmup", "1", "--batch-videos", "4",
             "--seed", "3"]
    for name in ("t1", "t2"):
        assert cli_main(["train-single", "--data", str(data), "--task", "oscc",
                         "--run", str(tmp_path / name)] + flags) == 0
    train_same = ((tmp_path / "t1" / "metrics.json").read_bytes()
                  == (tmp_path / "t2" / "metrics.json").read_bytes())
    for name in ("e1", "e2"):
        assert cli_main(["eval", "--run", str(tmp_path / "t1"),
                         "--data", str(data), "--split", "val",
                         "--out", str(tmp_path / name)]) == 0
    eval_same = ((tmp_path / "e1" / "metrics.json").read_bytes()
                 == (tmp_path / "e2" / "metrics.json").read_bytes())
    payload = json.loads((tmp_path / "t1" / "metrics.json").read_text())
    ok = train_same and eval_same and "metrics" in payload
    _report(9, ok, "repeated train and eval runs wrote byte-identical "
                   "metrics.json")
