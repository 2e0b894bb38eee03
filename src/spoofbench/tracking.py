"""Track lifecycle and the tracker-agnostic run loop.

Both trackers drive the same machinery: a step function consumes the
live track list and one detection frame, and returns a StepResult with
updated tracks, per-track assignment outcomes, births, and deletions.
Confirmation is M-of-N on the hit history; deletion is a consecutive
miss streak.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from collections import deque
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .codec import Record
from .errors import ConfigError
from .estimation import GAMMA_DEFAULT, V_MAX_DEFAULT, KinematicEstimate, estimate_from_detection
from .sensing import Detection, DetectionFrame
from .streams import TAG_BIRTH, substream

# sentinel recorded in assignment history when a step had no assigned
# detection
MISS = None


class TrackStatus(str, Enum):
    TENTATIVE = "tentative"
    CONFIRMED = "confirmed"
    DELETED = "deleted"


@dataclass
class TrackerParams(Record):
    dt_s: float = 1.0
    gamma: float = GAMMA_DEFAULT
    q: float = 1.0                 # process noise scale
    p_detect: float = 0.9          # detection probability assumed by JPDA
    clutter_density: float = 0.0   # expected clutter per m^2 (JPDA miss mass)
    confirm_hits: int = 2          # M of the M-of-N confirmation rule
    confirm_window: int = 3        # N of the M-of-N confirmation rule
    delete_misses: int = 5         # consecutive misses before deletion
    p_birth: float = 1.0           # per unassigned detection per frame
    v_max_mps: float = V_MAX_DEFAULT
    hit_threshold: float = 0.5     # JPDA: hit iff 1 - beta_miss >= this

    def __post_init__(self) -> None:
        # NaN passes every comparison below; a huge int would overflow isfinite
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        if self.dt_s <= 0.0:
            raise ConfigError("dt_s must be positive")
        if self.gamma < 0.0:
            raise ConfigError("gamma must be non-negative")
        if self.q < 0.0:
            raise ConfigError("q must be non-negative")
        if self.v_max_mps <= 0.0:
            raise ConfigError("v_max_mps must be positive")
        if not 0.0 <= self.hit_threshold <= 1.0:
            raise ConfigError("hit_threshold must be in [0, 1]")
        if not 0.0 < self.p_detect <= 1.0:
            raise ConfigError("p_detect must be in (0, 1]")
        if self.clutter_density < 0.0:
            raise ConfigError("clutter_density must be non-negative")
        if not 1 <= self.confirm_hits <= self.confirm_window:
            raise ConfigError("need 1 <= confirm_hits <= confirm_window")
        if self.confirm_window > sys.maxsize:
            # the hit history is a deque of this maxlen
            raise ConfigError(f"confirm_window must be at most {sys.maxsize}")
        if self.delete_misses < 1:
            raise ConfigError("delete_misses must be at least 1")
        if not 0.0 <= self.p_birth <= 1.0:
            raise ConfigError("p_birth must be in [0, 1]")


@dataclass
class Track:
    track_id: int
    estimate: KinematicEstimate
    status: TrackStatus
    hit_history: deque            # booleans over the last confirm_window steps
    miss_streak: int
    assignment_history: list      # (t, detection_id or MISS, score)
    birth_t: int


def lifecycle_update(track: Track, hit: bool, params: TrackerParams) -> Track:
    """Advance confirmation/deletion state after a hit or miss.

    Updating a deleted track is a contract violation.
    """
    if track.status is TrackStatus.DELETED:
        raise ValueError(f"track {track.track_id} already deleted")
    track.hit_history.append(bool(hit))
    track.miss_streak = 0 if hit else track.miss_streak + 1
    if track.status is TrackStatus.TENTATIVE and sum(track.hit_history) >= params.confirm_hits:
        track.status = TrackStatus.CONFIRMED
    if track.miss_streak >= params.delete_misses:
        track.status = TrackStatus.DELETED
    return track


def birth_tracks(
    unassigned: Sequence[Detection],
    params: TrackerParams,
    rng: Optional[np.random.Generator] = None,
    id_source: Optional[Iterator[int]] = None,
) -> list[Track]:
    """Spawn a tentative track per unassigned detection with p_birth.

    The spawning detection counts as the new track's first hit and is
    recorded in its assignment history.
    """
    if id_source is None:
        id_source = itertools.count()
    births: list[Track] = []
    for det in sorted(unassigned, key=lambda d: d.detection_id):
        if params.p_birth < 1.0:
            if rng is None or rng.random() >= params.p_birth:
                continue
        history: deque = deque(maxlen=params.confirm_window)
        history.append(True)
        births.append(
            Track(
                track_id=next(id_source),
                estimate=estimate_from_detection(det.z, det.R, params.v_max_mps),
                status=TrackStatus.TENTATIVE,
                hit_history=history,
                miss_streak=0,
                assignment_history=[(det.t, det.detection_id, None)],
                birth_t=det.t,
            )
        )
    return births


@dataclass
class AssignmentOutcome:
    """What one live track consumed during one step.

    weights maps detection_id to consumed weight: the single assignment
    (weight 1) for a hard associator, the association probabilities for
    a soft one. miss_weight is the leftover mass on the no-detection
    hypothesis.
    """

    track_id: int
    detection_id: Optional[int]
    score: Optional[float]
    weights: dict = field(default_factory=dict)
    miss_weight: float = 1.0
    beta: Optional[dict] = None   # full probability vector, soft associator only


@dataclass
class StepResult:
    t: int
    tracks: list                  # live tracks after the step (survivors + births)
    assignments: list             # AssignmentOutcome per pre-existing track
    births: list
    deletions: list               # track ids deleted this step


@dataclass
class SnapshotRecord:
    """Per (step, track) record; the JSONL rows of a run come from these.

    weights/origins/miss_weight stay in memory for the metrics and are
    not serialized; beta is serialized for soft associators.
    """

    t: int
    track_id: int
    status: str
    x: float
    y: float
    vx: float
    vy: float
    detection_id: Optional[int]
    score: Optional[float]
    weights: dict = field(default_factory=dict)
    miss_weight: float = 1.0
    origins: dict = field(default_factory=dict)
    beta: Optional[dict] = None

    def to_json_dict(self, include_beta: bool) -> dict:
        record = {
            "t": self.t,
            "track_id": self.track_id,
            "status": self.status,
            "x": self.x,
            "y": self.y,
            "vx": self.vx,
            "vy": self.vy,
            "detection_id": self.detection_id,
            "score": self.score,
        }
        if include_beta:
            record["beta"] = self.beta
        return record

    @classmethod
    def from_json_dict(cls, d: dict) -> "SnapshotRecord":
        return cls(
            t=int(d["t"]),
            track_id=int(d["track_id"]),
            status=str(d["status"]),
            x=float(d["x"]),
            y=float(d["y"]),
            vx=float(d["vx"]),
            vy=float(d["vy"]),
            detection_id=d.get("detection_id"),
            score=d.get("score"),
            beta=d.get("beta"),
        )


@dataclass
class TrackerRun:
    """Everything one tracker produced over one detection stream."""

    tracker: str
    steps: list
    snapshots: list
    params: TrackerParams


def _snapshot_step(
    result: StepResult,
    frame: DetectionFrame,
    dead: Sequence[Track],
    include_beta: bool,
) -> list[SnapshotRecord]:
    origin_by_id = {d.detection_id: d.origin_key() for d in frame.detections}
    outcome_by_id = {a.track_id: a for a in result.assignments}
    records: list[SnapshotRecord] = []
    for track in sorted(
        list(result.tracks) + list(dead), key=lambda tr: tr.track_id
    ):
        outcome = outcome_by_id.get(track.track_id)
        if outcome is not None:
            detection_id, score = outcome.detection_id, outcome.score
            weights = dict(outcome.weights)
            miss_weight = outcome.miss_weight
            beta = outcome.beta
        else:
            # birth this step: the spawning detection is informational,
            # not a consumed update
            _, det_id, score = track.assignment_history[-1]
            detection_id = det_id
            weights = {}
            miss_weight = 0.0
            beta = None
        records.append(
            SnapshotRecord(
                t=result.t,
                track_id=track.track_id,
                status=track.status.value,
                x=float(track.estimate.x[0]),
                y=float(track.estimate.x[1]),
                vx=float(track.estimate.x[2]),
                vy=float(track.estimate.x[3]),
                detection_id=detection_id,
                score=score,
                weights={k: v for k, v in weights.items()},
                miss_weight=miss_weight,
                origins={k: origin_by_id[k] for k in weights},
                beta=beta,
            )
        )
    return records


StepFn = Callable[..., StepResult]


def run_tracker(
    frames: Sequence[DetectionFrame],
    params: TrackerParams,
    step_fn: StepFn,
    birth_seed: int = 0,
    tracker_name: str = "",
    include_beta: bool = False,
) -> TrackerRun:
    """Drive a step function over a detection stream.

    Track ids are unique within the run and never reused; birth draws
    come from streams keyed by (birth_seed, timestep).
    """
    live: list[Track] = []
    id_source = itertools.count()
    steps: list[StepResult] = []
    snapshots: list[SnapshotRecord] = []
    for frame in frames:
        rng = substream(birth_seed, TAG_BIRTH, frame.t)
        before = {tr.track_id: tr for tr in live}
        result = step_fn(live, frame, params, birth_rng=rng, id_source=id_source)
        dead = [before[tid] for tid in result.deletions]
        steps.append(result)
        snapshots.extend(_snapshot_step(result, frame, dead, include_beta))
        live = result.tracks
    return TrackerRun(tracker=tracker_name, steps=steps, snapshots=snapshots, params=params)


def write_snapshots_jsonl(path, run: TrackerRun, include_beta: bool) -> None:
    """One JSON object per line: t, track_id, status, x, y, vx, vy,
    detection_id, score, and the beta vector for soft associators."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for record in run.snapshots:
            fh.write(
                json.dumps(
                    record.to_json_dict(include_beta),
                    separators=(",", ":"),
                    allow_nan=False,
                )
            )
            fh.write("\n")


def read_snapshots_jsonl(path) -> list[SnapshotRecord]:
    records: list[SnapshotRecord] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(SnapshotRecord.from_json_dict(json.loads(line)))
    return records
