"""Synthetic corpus tests: determinism, event structure, emission
semantics (two-phase and reversible pairs), scripted transitions,
annotation views, the ordering probe, byte oracles for both generators'
one-draw noise, and the on-disk roundtrip."""

import json
from dataclasses import replace

import numpy as np
import pytest

from tgk import synth
from tgk.synth import (
    SynthConfig,
    ar_annotations,
    generate_dataset,
    generate_order_windows,
    load_dataset,
    lta_annotations,
    lta_train_instances,
    mq_annotations,
    oscc_annotations,
    pnr_annotations,
    save_dataset,
    TASK_NAMES,
)

SMALL = SynthConfig(num_train_videos=6, num_val_videos=2,
                    segments_per_video=32, dim=16, seed=3)


# ---------------------------------------------------------------------------
# determinism and event structure
# ---------------------------------------------------------------------------


def test_generation_is_deterministic():
    a = generate_dataset(SMALL)
    b = generate_dataset(SMALL)
    assert len(a.train) == 6 and len(a.val) == 2
    for va, vb in zip(a.train + a.val, b.train + b.val):
        assert va.video_id == vb.video_id
        assert np.array_equal(va.features, vb.features)
        assert [vars(e) for e in va.events] == [vars(e) for e in vb.events]


def test_seed_changes_content():
    a = generate_dataset(SMALL)
    b = generate_dataset(SynthConfig(**{**vars(SMALL), "seed": 4}))
    assert not np.array_equal(a.train[0].features, b.train[0].features)


def test_events_tile_the_timeline():
    ds = generate_dataset(SMALL)
    for v in ds.train + ds.val:
        assert v.events[0].start_s == 0.0
        assert v.events[-1].end_s == 32.0
        assert v.duration_s == 32.0
        for prev, cur in zip(v.events, v.events[1:]):
            assert cur.start_s == prev.end_s
        for e in v.events:
            n_seg = round((e.end_s - e.start_s) / ds.config.segment_s)
            assert n_seg >= ds.config.event_len_lo
        assert v.features.shape == (32, 16)
        assert np.array_equal(v.positions_s, np.arange(32) * 1.0 + 0.5)


def test_labels_in_range_and_state_change_rule():
    ds = generate_dataset(SMALL)
    half = ds.config.num_verbs // 2
    for v in ds.train:
        for e in v.events:
            assert 0 <= e.verb < ds.config.num_verbs
            assert 0 <= e.noun < ds.config.num_nouns
            assert e.state_change == (e.verb < half)
            if e.state_change:
                frac = (e.pnr_s - e.start_s) / (e.end_s - e.start_s)
                assert 0.3 <= frac <= 0.7
            else:
                assert e.pnr_s is None


# ---------------------------------------------------------------------------
# emission semantics at zero noise
# ---------------------------------------------------------------------------


def clean_corpus():
    return generate_dataset(SynthConfig(
        num_train_videos=30, num_val_videos=1, segments_per_video=64,
        dim=16, noise=0.0, seed=1))


def segment_rows(v, e):
    lo = int(round(e.start_s))
    hi = int(round(e.end_s))
    return v.features[lo:hi], v.positions_s[lo:hi]


def test_flat_emission_for_non_changing_events():
    ds = clean_corpus()
    seen = 0
    for v in ds.train:
        for e in v.events:
            if e.state_change:
                continue
            rows, _ = segment_rows(v, e)
            assert np.all(rows == rows[0])
            seen += 1
    assert seen > 10


def test_two_phase_emission_flips_at_keyframe():
    ds = clean_corpus()
    seen = 0
    for v in ds.train:
        for e in v.events:
            if not e.state_change:
                continue
            rows, times = segment_rows(v, e)
            before = rows[times < e.pnr_s]
            after = rows[times >= e.pnr_s]
            assert len(before) and len(after)
            assert np.all(before == before[0])
            assert np.all(after == after[0])
            assert not np.array_equal(before[0], after[0])
            seen += 1
    assert seen > 10


def test_reversible_pair_shares_phases_in_opposite_order():
    ds = clean_corpus()
    # collect one phase pair per (verb, noun) combination
    phases = {}
    for v in ds.train:
        for e in v.events:
            if not e.state_change:
                continue
            rows, times = segment_rows(v, e)
            pre = rows[times < e.pnr_s][0]
            post = rows[times >= e.pnr_s][0]
            phases.setdefault((e.verb, e.noun), (pre, post))
    pairs = 0
    for (verb, noun), (pre, post) in phases.items():
        if verb % 2:
            continue
        partner = phases.get((verb + 1, noun))
        if partner is None:
            continue
        # the paired verb plays the same two appearances backwards
        assert np.array_equal(pre, partner[1])
        assert np.array_equal(post, partner[0])
        pairs += 1
    assert pairs >= 2


def test_noise_perturbs_but_preserves_class_signal():
    cfg = SynthConfig(num_train_videos=4, num_val_videos=1,
                      segments_per_video=32, dim=16, noise=0.1, seed=5)
    noisy = generate_dataset(cfg)
    clean = generate_dataset(SynthConfig(**{**vars(cfg), "noise": 0.0}))
    delta = noisy.train[0].features - clean.train[0].features
    assert 0.0 < np.abs(delta).max() < 1.0
    assert np.abs(delta).mean() < 0.2


# ---------------------------------------------------------------------------
# scripted transitions
# ---------------------------------------------------------------------------


def test_verb_transitions_follow_cyclic_script():
    cfg = SynthConfig(num_train_videos=100, num_val_videos=1,
                      segments_per_video=64, dim=8, seed=7)
    ds = generate_dataset(cfg)
    follow = total = 0
    for v in ds.train:
        for prev, cur in zip(v.events, v.events[1:]):
            follow += int(cur.verb == (prev.verb + 1) % cfg.num_verbs)
            total += 1
    rate = follow / total
    expected = cfg.verb_follow + (1 - cfg.verb_follow) / cfg.num_verbs
    assert abs(rate - expected) < 0.05


def test_noun_persistence_rate():
    cfg = SynthConfig(num_train_videos=100, num_val_videos=1,
                      segments_per_video=64, dim=8, seed=8)
    ds = generate_dataset(cfg)
    same = total = 0
    for v in ds.train:
        for prev, cur in zip(v.events, v.events[1:]):
            same += int(cur.noun == prev.noun)
            total += 1
    rate = same / total
    expected = cfg.noun_repeat + (1 - cfg.noun_repeat) / cfg.num_nouns
    assert abs(rate - expected) < 0.05


def test_transition_knobs_validated_range():
    ds = generate_dataset(SynthConfig(**{**vars(SMALL), "verb_follow": 1.0,
                                         "noun_repeat": 1.0}))
    for v in ds.train:
        for prev, cur in zip(v.events, v.events[1:]):
            assert cur.verb == (prev.verb + 1) % SMALL.num_verbs
            assert cur.noun == prev.noun


# ---------------------------------------------------------------------------
# annotation views
# ---------------------------------------------------------------------------


def test_annotation_views_match_events():
    ds = generate_dataset(SMALL)
    v = ds.train[0]
    ivals, verbs, nouns = ar_annotations(v)
    assert np.array_equal(ivals[:, 0], [e.start_s for e in v.events])
    assert np.array_equal(verbs, [e.verb for e in v.events])
    assert np.array_equal(nouns, [e.noun for e in v.events])

    _, flags = oscc_annotations(v)
    assert np.array_equal(flags, [int(e.state_change) for e in v.events])

    p_ivals, times = pnr_annotations(v)
    changing = [e for e in v.events if e.state_change]
    assert len(p_ivals) == len(changing)
    assert np.array_equal(times, [e.pnr_s for e in changing])

    _, cats = mq_annotations(v)
    assert np.array_equal(cats, [e.verb for e in v.events])


def test_lta_annotations_anchor_on_last_observed_event():
    ds = generate_dataset(SMALL)
    steps = 4
    for v in ds.train:
        anchor, verbs, nouns = lta_annotations(v, steps)
        half = len(v.events) // 2
        assert anchor == (v.events[half - 1].start_s, v.events[half - 1].end_s)
        future = v.events[half:half + steps]
        assert np.array_equal(verbs, [e.verb for e in future])
        assert np.array_equal(nouns, [e.noun for e in future])
        assert len(verbs) <= steps


def test_lta_train_instances_cover_every_anchor():
    ds = generate_dataset(SMALL)
    steps = 3
    v = ds.train[0]
    instances = lta_train_instances(v, steps)
    assert len(instances) == len(v.events) - 1
    for i, (anchor, verbs, nouns) in enumerate(instances):
        assert anchor == (v.events[i].start_s, v.events[i].end_s)
        future = v.events[i + 1:i + 1 + steps]
        assert np.array_equal(verbs, [e.verb for e in future])
        assert np.array_equal(nouns, [e.noun for e in future])
        assert 1 <= len(verbs) <= steps


# ---------------------------------------------------------------------------
# ordering probe
# ---------------------------------------------------------------------------


def test_order_windows_shapes_and_balance():
    rng = np.random.default_rng(9)
    feats, positions, labels = generate_order_windows(400, 0.1, rng, dim=16)
    assert feats.shape == (400, 8, 16)
    assert np.array_equal(positions, np.arange(8) + 0.5)
    assert set(labels.tolist()) == {0, 1}
    assert 0.4 < labels.mean() < 0.6


def test_order_windows_clean_structure():
    rng = np.random.default_rng(10)
    feats, _, labels = generate_order_windows(50, 0.0, rng, dim=16)
    # two constant runs per window; the label says which pattern leads
    first_rows = feats[:, 0]
    last_rows = feats[:, -1]
    a_pattern = first_rows[labels == 1][0]
    b_pattern = first_rows[labels == 0][0]
    for w in range(50):
        expect_first = a_pattern if labels[w] else b_pattern
        expect_last = b_pattern if labels[w] else a_pattern
        assert np.array_equal(feats[w, 0], expect_first)
        assert np.array_equal(feats[w, -1], expect_last)
        distinct = np.unique(feats[w], axis=0)
        assert distinct.shape[0] == 2
        # switch point sits in the middle range, two segments from edges
        runs = np.nonzero(~np.all(feats[w, 1:] == feats[w, :-1], axis=1))[0]
        assert len(runs) == 1
        assert 2 <= runs[0] + 1 <= 6


def test_order_windows_deterministic_given_generator():
    f1, _, l1 = generate_order_windows(20, 0.2, np.random.default_rng(11))
    f2, _, l2 = generate_order_windows(20, 0.2, np.random.default_rng(11))
    assert np.array_equal(f1, f2)
    assert np.array_equal(l1, l2)


@pytest.mark.parametrize("argument, value", [("window_segments", 3),
                                             ("num_windows", -1)])
def test_order_windows_reject_bad_sizes_by_name(argument, value):
    kwargs = {"num_windows": 4, "window_segments": 8, argument: value}
    with pytest.raises(ValueError, match=f"{argument} .*{value}"):
        generate_order_windows(noise=0.1, rng=np.random.default_rng(0),
                               **kwargs)


def test_order_windows_accept_four_segments():
    feats, _, _ = generate_order_windows(
        3, 0.1, np.random.default_rng(0), dim=4, window_segments=4)
    assert feats.shape == (3, 4, 4)


# ---------------------------------------------------------------------------
# byte oracles: one noise draw per window and per video against the
# per-segment loops they replace
# ---------------------------------------------------------------------------


def order_windows_loop(num_windows, noise, rng, dim=32, window_segments=8):
    cfg = SynthConfig(dim=dim, num_verbs=2, num_nouns=2, noise=noise,
                      two_phase=False, seed=0)
    world = synth._World(cfg)
    pattern_a = world.verb_patterns[0] + world.noun_patterns[0]
    pattern_b = world.verb_patterns[1] + world.noun_patterns[1]
    positions = np.arange(window_segments) + 0.5
    lo, hi = 2, window_segments - 2
    feats = np.zeros((num_windows, window_segments, dim))
    labels = np.zeros(num_windows, dtype=np.intp)
    for w in range(num_windows):
        first_len = int(rng.integers(lo, hi + 1))
        a_first = bool(rng.integers(2))
        first, second = (pattern_a, pattern_b) if a_first else (pattern_b, pattern_a)
        labels[w] = int(a_first)
        for i in range(window_segments):
            base = first if i < first_len else second
            feats[w, i] = base + noise * rng.standard_normal(dim)
    return feats, positions, labels


def emit_loop(world, cfg, event, t_s, rng):
    base = world.verb_patterns[event.verb] + world.noun_patterns[event.noun]
    if cfg.two_phase and event.state_change and event.pnr_s is not None:
        after = t_s >= event.pnr_s
        forward = event.verb % 2 == 0
        sign = 1.0 if after == forward else -1.0
        base = base + sign * world.phase_delta
    return base + cfg.noise * rng.standard_normal(cfg.dim)


def make_video_loop(cfg, world, video_id, rng):
    n = cfg.segments_per_video
    positions = (np.arange(n) + 0.5) * cfg.segment_s

    # carve the timeline into events; the tail extends the last event
    cuts = []
    used = 0
    while used < n:
        length = int(rng.integers(cfg.event_len_lo, cfg.event_len_hi + 1))
        if n - (used + length) < cfg.event_len_lo:
            length = n - used
        cuts.append((used, used + length))
        used += length

    events = []
    verb = int(rng.integers(cfg.num_verbs))
    noun = int(rng.integers(cfg.num_nouns))
    for k, (seg_lo, seg_hi) in enumerate(cuts):
        if k > 0:
            if rng.random() < cfg.verb_follow:
                verb = (verb + 1) % cfg.num_verbs
            else:
                verb = int(rng.integers(cfg.num_verbs))
            if rng.random() >= cfg.noun_repeat:
                noun = int(rng.integers(cfg.num_nouns))
        start = seg_lo * cfg.segment_s
        end = seg_hi * cfg.segment_s
        changing = synth._is_state_changing(verb, cfg.num_verbs)
        pnr = None
        if changing:
            frac = rng.uniform(0.3, 0.7)
            pnr = start + frac * (end - start)
        events.append(synth.Event(start, end, verb, noun, changing, pnr))

    feats = np.zeros((n, cfg.dim))
    for event in events:
        lo = int(round(event.start_s / cfg.segment_s))
        hi = int(round(event.end_s / cfg.segment_s))
        for i in range(lo, hi):
            feats[i] = emit_loop(world, cfg, event, positions[i], rng)
    return synth.VideoSample(video_id, feats, positions, events)


@pytest.mark.parametrize("noise", [0.0, 0.1, 0.37])
@pytest.mark.parametrize("num_windows, window_segments, dim",
                         [(0, 8, 8), (1, 8, 4), (1, 4, 4), (37, 7, 12),
                          (200, 8, 8), (25, 4, 3)])
@pytest.mark.parametrize("seed", [0, 17])
def test_order_windows_equal_per_segment_loop_bytes(
        noise, num_windows, window_segments, dim, seed):
    rng, rng_loop = np.random.default_rng(seed), np.random.default_rng(seed)
    got = generate_order_windows(num_windows, noise, rng, dim=dim,
                                 window_segments=window_segments)
    want = order_windows_loop(num_windows, noise, rng_loop, dim=dim,
                              window_segments=window_segments)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()
    assert rng.bit_generator.state == rng_loop.bit_generator.state


@pytest.mark.parametrize("noise", [0.0, 0.1, 0.25])
@pytest.mark.parametrize("two_phase", [True, False])
@pytest.mark.parametrize("segment_s", [1.0, 0.5, 0.3])
@pytest.mark.parametrize("segments, dim", [(32, 16), (7, 5)])
def test_make_video_equals_per_segment_loop_bytes(noise, two_phase, segment_s,
                                                  segments, dim):
    cfg = SynthConfig(segments_per_video=segments, dim=dim, noise=noise,
                      two_phase=two_phase, segment_s=segment_s, seed=11)
    world = synth._World(cfg)
    rng, rng_loop = np.random.default_rng(4), np.random.default_rng(4)
    for i in range(6):
        got = synth._make_video(cfg, world, f"v{i}", rng)
        want = make_video_loop(cfg, world, f"v{i}", rng_loop)
        assert got.features.tobytes() == want.features.tobytes()
        assert got.positions_s.tobytes() == want.positions_s.tobytes()
        assert got.events == want.events
        assert rng.bit_generator.state == rng_loop.bit_generator.state


def test_dataset_equals_per_segment_loop_bytes():
    cfg = replace(SMALL, noise=0.25)
    world = synth._World(cfg)
    rng = np.random.default_rng(cfg.seed + 1)
    ds = generate_dataset(cfg)
    for v in ds.train + ds.val:
        want = make_video_loop(cfg, world, v.video_id, rng)
        assert v.features.tobytes() == want.features.tobytes()
        assert v.events == want.events


# ---------------------------------------------------------------------------
# on-disk roundtrip
# ---------------------------------------------------------------------------


def test_save_load_roundtrip(tmp_path):
    ds = generate_dataset(SMALL)
    save_dataset(tmp_path, ds)
    loaded = load_dataset(tmp_path)
    assert loaded.config == ds.config
    for split in ("train", "val"):
        for va, vb in zip(ds.split(split), loaded.split(split)):
            assert va.video_id == vb.video_id
            assert np.array_equal(va.positions_s, vb.positions_s)
            # features pass through float32 storage
            assert np.max(np.abs(va.features - vb.features)) < 1e-6
            assert [vars(e) for e in va.events] == [vars(e) for e in vb.events]


def test_saved_annotation_files_cover_all_tasks(tmp_path):
    ds = generate_dataset(SMALL)
    save_dataset(tmp_path, ds)
    for task in TASK_NAMES:
        path = tmp_path / "train" / "annotations" / f"{task}.json"
        records = json.loads(path.read_text())
        assert set(records) == {v.video_id for v in ds.train}
    lta = json.loads((tmp_path / "train" / "annotations" / "lta.json").read_text())
    v = ds.train[0]
    anchor, verbs, nouns = lta_annotations(v, ds.config.lta_steps)
    rec = lta[v.video_id][0]
    assert rec["start_s"] == anchor[0] and rec["end_s"] == anchor[1]
    assert rec["labels"]["verbs"] == verbs.tolist()
    assert rec["labels"]["nouns"] == nouns.tolist()


def test_load_rejects_malformed_corpus_naming_the_file(tmp_path):
    save_dataset(tmp_path, generate_dataset(SMALL))
    config = tmp_path / "config.json"
    whole = json.loads(config.read_text())
    for raw, message in (({**whole, "bogus": 1}, "unknown key bogus"),
                         ({k: v for k, v in whole.items() if k != "seed"},
                          "missing key seed")):
        config.write_text(json.dumps(raw))
        with pytest.raises(ValueError, match=f"{config}: {message}"):
            load_dataset(tmp_path)
    config.write_text(json.dumps(whole))
    path = tmp_path / "val" / "annotations" / "pnr.json"
    records = json.loads(path.read_text())
    dropped = sorted(records)[-1]
    del records[dropped]
    path.write_text(json.dumps(records))
    with pytest.raises(ValueError,
                       match=f"{path}: no annotations for video {dropped}"):
        load_dataset(tmp_path)


def _edit_annotations(root, task, edit):
    """Apply ``edit(records)`` to the first train video's ``task`` records;
    returns the file and the video."""
    path = root / "train" / "annotations" / f"{task}.json"
    records = json.loads(path.read_text())
    video = sorted(records)[0]
    edit(records[video])
    path.write_text(json.dumps(records))
    return path, video


def test_load_rejects_oscc_records_that_are_not_the_ar_events(tmp_path):
    save_dataset(tmp_path, generate_dataset(SMALL))
    path, video = _edit_annotations(tmp_path, "oscc", lambda r: r.pop())
    with pytest.raises(ValueError,
                       match=f"{path}: video {video} has .* records, "
                             f"ar.json has "):
        load_dataset(tmp_path)
    save_dataset(tmp_path, generate_dataset(SMALL))

    def shift(records):
        records[0]["start_s"] += 0.25

    path, video = _edit_annotations(tmp_path, "oscc", shift)
    with pytest.raises(ValueError,
                       match=f"{path}: video {video} has a record at .* "
                             f"where ar.json has "):
        load_dataset(tmp_path)


def test_load_rejects_state_change_without_pnr_record(tmp_path):
    save_dataset(tmp_path, generate_dataset(SMALL))
    path, video = _edit_annotations(tmp_path, "pnr", lambda r: r.pop())
    with pytest.raises(ValueError,
                       match=f"{path}: video {video} has no record for the "
                             f"state change at "):
        load_dataset(tmp_path)


def test_load_rejects_pnr_record_matching_no_state_change(tmp_path):
    ds = generate_dataset(SMALL)
    save_dataset(tmp_path, ds)
    video = sorted(v.video_id for v in ds.train)[0]
    still = next(e for v in ds.train if v.video_id == video
                 for e in v.events if not e.state_change)

    def add(records):
        records.append({"start_s": still.start_s, "end_s": still.end_s,
                        "labels": {"keyframe_s": still.start_s}})

    path, _ = _edit_annotations(tmp_path, "pnr", add)
    with pytest.raises(ValueError,
                       match=f"{path}: video {video} has a record at "
                             f"{still.start_s} that matches no state change"):
        load_dataset(tmp_path)


def test_save_is_byte_deterministic(tmp_path):
    ds = generate_dataset(SMALL)
    save_dataset(tmp_path / "a", ds)
    save_dataset(tmp_path / "b", ds)
    files_a = sorted((tmp_path / "a").rglob("*"))
    files_b = sorted((tmp_path / "b").rglob("*"))
    names_a = [p.relative_to(tmp_path / "a") for p in files_a if p.is_file()]
    names_b = [p.relative_to(tmp_path / "b") for p in files_b if p.is_file()]
    assert names_a == names_b
    for rel in names_a:
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()


def test_split_validates_name():
    ds = generate_dataset(SMALL)
    with pytest.raises(ValueError):
        ds.split("test")
