"""Synthetic desk-scale video corpus with controllable structure.

A video is a timeline of contiguous latent events, each carrying a
(verb, noun) pair. Segment features are class-conditional patterns plus
Gaussian noise, so every task defined on the events is learnable by
construction and the difficulty is set by the noise level:

  - recognition: interval -> (verb, noun);
  - state change: the first half of the verb vocabulary counts as
    state-changing, and those events emit different patterns before and
    after an internal keyframe (flat emission otherwise). State-changing
    verbs additionally come in reversible pairs that share a base pattern
    and differ only in the order of the two phases, mirroring action pairs
    like open/close whose appearance is identical up to time reversal;
  - keyframe localization: the keyframe time of state-changing events;
  - interval detection: every event is a query with its verb as category;
  - forecasting: after an observed prefix, the following events' labels.
    Event sequences follow a loose script (verbs tend to step to their
    cyclic successor, nouns tend to persist), so the future is genuinely
    predictable from the past rather than independent of it.

Separately, ``generate_order_windows`` builds the two-event ordering probe
used to measure whether a layer can represent temporal direction at all:
fixed-size windows holding exactly two events (A then B, or B then A) with
randomized lengths, labeled by which came first. The window distribution
is mirror-symmetric, so any model blind to time order sits at chance on
it.

Both generators draw their Gaussian noise in one call per window or per
video, which consumes the generator's stream in the order a draw per
segment would: the bytes and the generator state afterwards are those of
the per-segment loops kept in ``tests/test_synth.py`` as byte oracles.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, asdict
from pathlib import Path

import numpy as np

from .graph import save_features, load_features

__all__ = [
    "SynthConfig", "Event", "VideoSample", "SynthDataset",
    "generate_dataset", "generate_order_windows", "save_dataset",
    "load_dataset", "TASK_NAMES", "ar_annotations", "oscc_annotations",
    "pnr_annotations", "mq_annotations", "lta_annotations",
    "lta_train_instances",
]

TASK_NAMES = ("ar", "oscc", "pnr", "mq", "lta")
# the keys ``load_dataset`` reads from each record of a task's annotations
RECORD_KEYS = {"ar": ("start_s", "end_s", "labels.verb", "labels.noun"),
               "oscc": ("start_s", "labels.state_change"),
               "pnr": ("start_s", "labels.keyframe_s")}


@dataclass(frozen=True)
class SynthConfig:
    """Knobs of the synthetic world; defaults are desk scale."""

    num_train_videos: int = 200
    num_val_videos: int = 50
    segments_per_video: int = 64
    dim: int = 32
    num_verbs: int = 8
    num_nouns: int = 6
    noise: float = 0.1
    segment_s: float = 1.0
    event_len_lo: int = 2
    event_len_hi: int = 6
    lta_steps: int = 8
    two_phase: bool = True
    verb_follow: float = 0.7
    noun_repeat: float = 0.5
    seed: int = 0


@dataclass
class Event:
    start_s: float
    end_s: float
    verb: int
    noun: int
    state_change: bool
    pnr_s: float | None = None


@dataclass
class VideoSample:
    video_id: str
    features: np.ndarray  # (N, dim) float64
    positions_s: np.ndarray  # (N,) segment midpoints
    events: list[Event] = field(default_factory=list)

    @property
    def duration_s(self) -> float:
        return float(self.events[-1].end_s) if self.events else 0.0


@dataclass
class SynthDataset:
    config: SynthConfig
    train: list[VideoSample]
    val: list[VideoSample]

    def split(self, name: str) -> list[VideoSample]:
        if name == "train":
            return self.train
        if name == "val":
            return self.val
        raise ValueError(f"unknown split {name!r}")


class _World:
    """Class-conditional emission patterns, fixed by the seed."""

    def __init__(self, cfg: SynthConfig):
        rng = np.random.default_rng(cfg.seed)
        scale = 1.0 / np.sqrt(cfg.dim)
        self.verb_patterns = rng.standard_normal((cfg.num_verbs, cfg.dim)) * scale
        self.noun_patterns = rng.standard_normal((cfg.num_nouns, cfg.dim)) * scale
        self.phase_delta = rng.standard_normal(cfg.dim) * scale
        # State-changing verbs form reversible pairs, the way "open" and
        # "close" or "put" and "take" mirror each other in egocentric video.
        # Both verbs of a pair share one base pattern; only the order of the
        # two emission phases tells them apart, so any model that ignores
        # temporal direction sees identical feature bags for the pair.
        n_change = cfg.num_verbs // 2
        for k in range(0, n_change - 1, 2):
            self.verb_patterns[k + 1] = self.verb_patterns[k]


def _is_state_changing(verb: int, num_verbs: int) -> bool:
    return verb < num_verbs // 2


def _make_video(cfg: SynthConfig, world: _World, video_id: str,
                rng: np.random.Generator) -> VideoSample:
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
            # routines are loosely scripted: a verb tends to be followed by
            # its cyclic successor and the noun tends to persist, which is
            # what makes forecasting from the observed prefix learnable
            if rng.random() < cfg.verb_follow:
                verb = (verb + 1) % cfg.num_verbs
            else:
                verb = int(rng.integers(cfg.num_verbs))
            if rng.random() >= cfg.noun_repeat:
                noun = int(rng.integers(cfg.num_nouns))
        start = seg_lo * cfg.segment_s
        end = seg_hi * cfg.segment_s
        changing = _is_state_changing(verb, cfg.num_verbs)
        pnr = None
        if changing:
            frac = rng.uniform(0.3, 0.7)
            pnr = start + frac * (end - start)
        events.append(Event(start, end, verb, noun, changing, pnr))

    # the events tile segments 0..n in order, so one (n, dim) draw is the
    # stream of a draw per segment
    lengths = [hi - lo for lo, hi in cuts]
    verbs = np.repeat(np.array([e.verb for e in events], np.intp), lengths)
    nouns = np.repeat(np.array([e.noun for e in events], np.intp), lengths)
    feats = world.verb_patterns[verbs] + world.noun_patterns[nouns]
    if cfg.two_phase:
        keyframe = np.repeat(np.array([e.pnr_s for e in events], float),
                             lengths)
        # only the two-phase rows: adding 0.0 * phase_delta elsewhere would
        # turn a -0.0 into +0.0
        phased = ~np.isnan(keyframe)
        after = positions[phased] >= keyframe[phased]
        forward = verbs[phased] % 2 == 0
        sign = np.where(after == forward, 1.0, -1.0)
        feats[phased] += sign[:, None] * world.phase_delta
    feats += cfg.noise * rng.standard_normal((n, cfg.dim))
    return VideoSample(video_id, feats, positions, events)


def generate_dataset(cfg: SynthConfig) -> SynthDataset:
    """Deterministic corpus: same config, same bytes."""
    world = _World(cfg)
    rng = np.random.default_rng(cfg.seed + 1)
    train = [_make_video(cfg, world, f"train_{i:04d}", rng)
             for i in range(cfg.num_train_videos)]
    val = [_make_video(cfg, world, f"val_{i:04d}", rng)
           for i in range(cfg.num_val_videos)]
    return SynthDataset(cfg, train, val)


# ---------------------------------------------------------------------------
# per-task annotation views
# ---------------------------------------------------------------------------

def ar_annotations(v: VideoSample):
    """(intervals (M,2), verbs (M,), nouns (M,)) for every event."""
    ivals = np.array([[e.start_s, e.end_s] for e in v.events])
    verbs = np.array([e.verb for e in v.events], dtype=np.intp)
    nouns = np.array([e.noun for e in v.events], dtype=np.intp)
    return ivals, verbs, nouns


def oscc_annotations(v: VideoSample):
    """(intervals, binary state-change labels) for every event."""
    ivals = np.array([[e.start_s, e.end_s] for e in v.events])
    labels = np.array([int(e.state_change) for e in v.events], dtype=np.intp)
    return ivals, labels


def pnr_annotations(v: VideoSample):
    """(intervals, keyframe times) for state-changing events only."""
    changing = [e for e in v.events if e.state_change]
    if not changing:
        return np.empty((0, 2)), np.empty(0)
    ivals = np.array([[e.start_s, e.end_s] for e in changing])
    times = np.array([e.pnr_s for e in changing])
    return ivals, times


def mq_annotations(v: VideoSample):
    """(intervals, category ids): every event queried by its verb."""
    ivals = np.array([[e.start_s, e.end_s] for e in v.events])
    cats = np.array([e.verb for e in v.events], dtype=np.intp)
    return ivals, cats


def lta_annotations(v: VideoSample, steps: int):
    """(anchor interval, future verb seq, future noun seq).

    The observed prefix is the first half of the video's events; the
    target covers up to ``steps`` following events (fewer near the video
    end). The anchor interval spans the last observed event, which is the
    natural conditioning context for what comes next.
    """
    half = len(v.events) // 2
    future = v.events[half:half + steps]
    if half:
        anchor = (v.events[half - 1].start_s, v.events[half - 1].end_s)
    else:
        anchor = (0.0, 0.0)
    verbs = np.array([e.verb for e in future], dtype=np.intp)
    nouns = np.array([e.noun for e in future], dtype=np.intp)
    return anchor, verbs, nouns


def lta_train_instances(v: VideoSample, steps: int):
    """All (anchor interval, future labels) pairs for forecast training.

    One instance per event that has at least one successor: the anchor
    spans that event and the target lists up to ``steps`` following
    events. The benchmark instance (``lta_annotations``) anchors only at
    the halfway event; training on every anchor leaves the transition
    structure as the only fit consistent across instances, rather than
    per-video memorization.
    """
    out = []
    for i, e in enumerate(v.events[:-1]):
        future = v.events[i + 1:i + 1 + steps]
        verbs = np.array([f.verb for f in future], dtype=np.intp)
        nouns = np.array([f.noun for f in future], dtype=np.intp)
        out.append(((e.start_s, e.end_s), verbs, nouns))
    return out


# ---------------------------------------------------------------------------
# temporal-order probe
# ---------------------------------------------------------------------------

def generate_order_windows(num_windows: int, noise: float,
                           rng: np.random.Generator, dim: int = 32,
                           window_segments: int = 8):
    """Two-event windows labeled by which event comes first.

    Event A is (verb 0, noun 0), event B is (verb 1, noun 1); one of them
    fills the first ``len_a`` segments and the other the rest, with
    len_a drawn uniformly from the middle range. Labels are balanced and
    the construction is mirror-symmetric: reversing a window yields a
    window of the opposite label that is equally likely, so order-blind
    models cannot beat 50%.

    Returns (features (W, S, dim), positions_s (S,), labels (W,)); the
    segments are one second long.
    ``window_segments`` below 4 or a negative ``num_windows`` raise
    ValueError naming the argument.
    """
    if window_segments < 4:
        raise ValueError(f"window_segments must be at least 4, "
                         f"got {window_segments}")
    if num_windows < 0:
        raise ValueError(f"num_windows must be non-negative, "
                         f"got {num_windows}")
    cfg = SynthConfig(dim=dim, num_verbs=2, num_nouns=2, noise=noise,
                      two_phase=False, seed=0)
    world = _World(cfg)
    pattern_a = world.verb_patterns[0] + world.noun_patterns[0]
    pattern_b = world.verb_patterns[1] + world.noun_patterns[1]
    positions = np.arange(window_segments) + 0.5
    first_len = np.empty((num_windows, 1), dtype=np.intp)
    labels = np.empty(num_windows, dtype=np.intp)
    feats = np.empty((num_windows, window_segments, dim))
    # the two integers stay between the window's normals: one draw of
    # those normals per window keeps the per-segment stream
    for w in range(num_windows):
        first_len[w] = rng.integers(2, window_segments - 1)
        labels[w] = rng.integers(2)
        rng.standard_normal(out=feats[w])
    feats *= noise
    a_rows = (np.arange(window_segments) < first_len) == (labels[:, None] == 1)
    np.add(feats, pattern_a, out=feats, where=a_rows[:, :, None])
    np.add(feats, pattern_b, out=feats, where=~a_rows[:, :, None])
    return feats, positions, labels


# ---------------------------------------------------------------------------
# on-disk corpus layout
# ---------------------------------------------------------------------------

def _annotation_records(v: VideoSample, task: str, lta_steps: int) -> list[dict]:
    if task == "ar":
        return [{"start_s": e.start_s, "end_s": e.end_s,
                 "labels": {"verb": e.verb, "noun": e.noun}}
                for e in v.events]
    if task == "oscc":
        return [{"start_s": e.start_s, "end_s": e.end_s,
                 "labels": {"state_change": int(e.state_change)}}
                for e in v.events]
    if task == "pnr":
        return [{"start_s": e.start_s, "end_s": e.end_s,
                 "labels": {"keyframe_s": e.pnr_s}}
                for e in v.events if e.state_change]
    if task == "mq":
        return [{"start_s": e.start_s, "end_s": e.end_s,
                 "labels": {"category": e.verb}}
                for e in v.events]
    if task == "lta":
        anchor, verbs, nouns = lta_annotations(v, lta_steps)
        return [{"start_s": anchor[0], "end_s": anchor[1],
                 "labels": {"verbs": verbs.tolist(), "nouns": nouns.tolist()}}]
    raise ValueError(f"unknown task {task!r}")


def save_dataset(directory: str | Path, ds: SynthDataset) -> None:
    """Features as .bin/.json pairs per video, annotations per task."""
    directory = Path(directory)
    (directory / "config.json").parent.mkdir(parents=True, exist_ok=True)
    (directory / "config.json").write_text(
        json.dumps(asdict(ds.config), indent=2, sort_keys=True))
    for split in ("train", "val"):
        split_dir = directory / split / "features"
        split_dir.mkdir(parents=True, exist_ok=True)
        for v in ds.split(split):
            save_features(split_dir / v.video_id, v.features,
                          v.positions_s, v.video_id)
        ann_dir = directory / split / "annotations"
        ann_dir.mkdir(parents=True, exist_ok=True)
        for task in TASK_NAMES:
            records = {v.video_id: _annotation_records(v, task, ds.config.lta_steps)
                       for v in ds.split(split)}
            (ann_dir / f"{task}.json").write_text(
                json.dumps(records, indent=2, sort_keys=True))


def _read_config(path: Path) -> SynthConfig:
    """The corpus config at ``path``; a missing or unknown key raises
    ValueError naming the file and the key."""
    raw = json.loads(path.read_text())
    names = {f.name for f in fields(SynthConfig)}
    for kind, keys in (("missing", names - set(raw)),
                       ("unknown", set(raw) - names)):
        if keys:
            raise ValueError(f"{path}: {kind} key {sorted(keys)[0]}")
    return SynthConfig(**raw)


def _read_annotations(path: Path, video_ids) -> dict:
    """The annotation file at ``path``; one that lacks a video of
    ``video_ids`` raises ValueError naming the file and the video."""
    records = json.loads(path.read_text())
    for video_id in sorted(video_ids):
        if video_id not in records:
            raise ValueError(f"{path}: no annotations for video {video_id}")
    return records


def load_dataset(directory: str | Path) -> SynthDataset:
    """Rebuild a saved corpus, reconstructing events from annotations.

    A config key that is missing or unknown, an annotation file that lacks
    a video ``ar.json`` lists, a record that lacks a key of
    ``RECORD_KEYS``, ``oscc.json`` records that are not ``ar.json``'s
    events (count or start times), or ``pnr.json`` records that are not
    exactly the state-changing events raise ValueError naming the file and
    the video.
    """
    directory = Path(directory)
    cfg = _read_config(directory / "config.json")
    splits: dict[str, list[VideoSample]] = {}
    for split in ("train", "val"):
        ann_dir = directory / split / "annotations"
        ar = json.loads((ann_dir / "ar.json").read_text())
        oscc, pnr = (_read_annotations(ann_dir / f"{task}.json", ar)
                     for task in ("oscc", "pnr"))
        videos = []
        for video_id in sorted(ar):
            feats, positions, vid = load_features(
                directory / split / "features" / video_id)
            events = _video_events(ann_dir, video_id, ar[video_id],
                                   oscc[video_id], pnr[video_id])
            videos.append(VideoSample(vid, feats, positions, events))
        splits[split] = videos
    return SynthDataset(cfg, splits["train"], splits["val"])


def _video_events(ann_dir: Path, video_id: str, ar: list, oscc: list,
                  pnr: list) -> list[Event]:
    """One video's events from its ``ar``, ``oscc`` and ``pnr`` records,
    checked for the keys they are read by and against each other."""
    for task, records in (("ar", ar), ("oscc", oscc), ("pnr", pnr)):
        for rec in records:
            for key in RECORD_KEYS[task]:
                top, _, sub = key.partition(".")
                if top not in rec or sub and sub not in rec[top]:
                    raise ValueError(f"{ann_dir / f'{task}.json'}: video "
                                     f"{video_id} has a record without {key}")
    where = f"{ann_dir / 'oscc.json'}: video {video_id}"
    if len(oscc) != len(ar):
        raise ValueError(f"{where} has {len(oscc)} records, "
                         f"ar.json has {len(ar)}")
    for rec_ar, rec_oscc in zip(ar, oscc):
        if rec_oscc["start_s"] != rec_ar["start_s"]:
            raise ValueError(f"{where} has a record at {rec_oscc['start_s']} "
                             f"where ar.json has {rec_ar['start_s']}")
    changing = {rec["start_s"] for rec in oscc
                if rec["labels"]["state_change"]}
    keyframes = {rec["start_s"]: rec["labels"]["keyframe_s"] for rec in pnr}
    where = f"{ann_dir / 'pnr.json'}: video {video_id}"
    missing = sorted(changing - keyframes.keys())
    if missing:
        raise ValueError(f"{where} has no record for the state change "
                         f"at {missing[0]}")
    stray = sorted(keyframes.keys() - changing)
    if stray:
        raise ValueError(f"{where} has a record at {stray[0]} that matches "
                         f"no state change")
    return [Event(start_s=rec_ar["start_s"], end_s=rec_ar["end_s"],
                  verb=rec_ar["labels"]["verb"],
                  noun=rec_ar["labels"]["noun"],
                  state_change=bool(rec_oscc["labels"]["state_change"]),
                  pnr_s=keyframes.get(rec_ar["start_s"]))
            for rec_ar, rec_oscc in zip(ar, oscc)]
