"""Track lifecycle and the tracker-agnostic run loop.

Both trackers drive the same machinery: a step function consumes the
live track list and one detection frame, and returns a StepResult with
the live tracks, one SnapshotRecord per pre-existing track (built by
snapshot_record as the track leaves the step), births, and deletions.
run_tracker adds a row per birth. Provenance stays on the detections:
the metrics look it up by (t, detection_id) in the spoofed stream, so
neither the trackers nor this loop read labels. Confirmation is M-of-N
on the hit history; deletion is a consecutive miss streak.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from collections import deque
from dataclasses import dataclass, field, fields
from functools import cached_property
from enum import Enum
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .codec import Record, _decode_key, check_keys, decode
from .errors import ConfigError
from .estimation import GAMMA_DEFAULT, V_MAX_DEFAULT, GateResult, KinematicEstimate
from .estimation import estimate_from_detection, gate_stack, kf_predict_stack
from .sensing import Detection, DetectionFrame

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


@dataclass
class Track:
    track_id: int
    estimate: KinematicEstimate
    status: TrackStatus
    hit_history: deque            # booleans over the last confirm_window steps
    miss_streak: int
    birth_detection_id: int       # the detection that spawned the track


def stack_estimates(tracks: Sequence[Track]) -> tuple[np.ndarray, np.ndarray]:
    """The tracks' means (N, 4) and covariances (N, 4, 4), in list order."""
    x = np.array([tr.estimate.x for tr in tracks], dtype=float).reshape(-1, 4)
    P = np.array([tr.estimate.P for tr in tracks], dtype=float).reshape(-1, 4, 4)
    return x, P


def set_estimates(tracks: Sequence[Track], x: np.ndarray, P: np.ndarray) -> None:
    """Give each track a copy of its row of x and P. A view would keep
    the step's whole stack alive for as long as a StepResult holds the
    track."""
    for track, x_i, P_i in zip(tracks, x, P):
        track.estimate = KinematicEstimate(x=x_i.copy(), P=P_i.copy())


class TrackStack:
    """One step's tracks, row i being tracks[i], predicted and gated
    against its frame by one stacked kernel call each. A step reads
    each track's row through one predict_row and one gate_row call
    (which perfbench/tracer.py times and counts); the first read of
    each runs its kernel over all rows."""

    def __init__(self, tracks: Sequence[Track], frame: DetectionFrame, params: TrackerParams):
        self.tracks, self.frame, self.params = tracks, frame, params

    @cached_property
    def predicted(self) -> tuple[np.ndarray, np.ndarray]:
        x, P = stack_estimates(self.tracks)
        return kf_predict_stack(x, P, self.params.dt_s, self.params.q)

    @cached_property
    def gated(self) -> GateResult:
        return gate_stack(self.frame, *self.predicted, self.params.gamma)


def predict_row(stack: TrackStack, row: int) -> KinematicEstimate:
    """Track row's prediction, copied out of the stack."""
    x, P = stack.predicted
    return KinematicEstimate(x=x[row].copy(), P=P[row].copy())


def gate_row(stack: TrackStack, row: int) -> GateResult:
    """Track row's gate, a one-row GateResult; len() counts its detections."""
    g, cut = stack.gated, slice(row, row + 1)
    return GateResult(g.d2[cut], g.S[cut], g.inside[cut], g.detection_ids)


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
    *,
    id_source: Iterator[int],
) -> list[Track]:
    """Spawn a tentative track per unassigned detection.

    The spawning detection counts as the new track's first hit.
    """
    births: list[Track] = []
    for det in sorted(unassigned, key=lambda d: d.detection_id):
        history: deque = deque(maxlen=params.confirm_window)
        history.append(True)
        births.append(
            Track(
                track_id=next(id_source),
                estimate=estimate_from_detection(det.z, det.R, params.v_max_mps),
                status=TrackStatus.TENTATIVE,
                hit_history=history,
                miss_streak=0,
                birth_detection_id=det.detection_id,
            )
        )
    return births


@dataclass
class SnapshotRecord:
    """Per (step, track) record; the JSONL rows of a run come from these.

    weights maps detection_id to the weight the track consumed; the
    metrics read it against the spoofed stream's provenance. miss is a
    soft associator's miss probability, None elsewhere. A soft
    associator's row writes both as its beta object, {"miss": miss,
    "<detection_id>": weight, ...} in ascending id order, and the read
    fills them back in. A hard associator's row writes neither: it
    consumed its detection whole if it has a score, so the read gives it
    weights {detection_id: 1.0}, and nothing otherwise. The JSON form is
    hand-written, not a codec Record: rows are written inside the timed
    run and read back by export. write_snapshots_jsonl formats each
    row's text directly, and from_json_dict checks the common leaves
    inline, calling codec.decode only for any other value; on the 17,003
    rows of one dense_ghost iteration that read takes half the time of a
    decode call per leaf.
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
    miss: Optional[float] = None

    @classmethod
    def from_json_dict(cls, d, include_beta: bool) -> "SnapshotRecord":
        """Strict read of one row of write_snapshots_jsonl with the same
        include_beta; a bad row is a ConfigError."""
        keys = _ROW_KEY_SETS[include_beta]
        if type(d) is not dict or d.keys() != keys:
            check_keys(d, keys, keys, "row")  # raises
        if d["status"] not in _STATUSES:
            raise ConfigError(f"status must be one of {list(_STATUSES)}")
        beta = d.get("beta")
        miss, weights = None, {}
        if beta is not None:
            if not isinstance(beta, dict):
                raise ConfigError("beta must be an object or null")
            if "miss" not in beta:
                raise ConfigError("beta missing keys: ['miss']")
            for key, value in beta.items():
                if type(value) is not float or not -_INF < value < _INF:
                    value = decode(float, value, f"beta.{key}")
                if key == "miss":
                    miss = value
                else:
                    weights[_decode_key(int, key, "beta")] = value
        # the common leaves (an int, a finite float) are checked inline;
        # any other value goes through codec.decode, in the fields' order,
        # which converts it or words the error
        t, track_id, x, y, vx, vy = d["t"], d["track_id"], d["x"], d["y"], d["vx"], d["vy"]
        if not (
            type(t) is int and type(track_id) is int
            and type(x) is float and type(y) is float
            and type(vx) is float and type(vy) is float
            and -_INF < x < _INF and -_INF < y < _INF
            and -_INF < vx < _INF and -_INF < vy < _INF
        ):
            t, track_id = decode(int, t, "t"), decode(int, track_id, "track_id")
            x, y = decode(float, x, "x"), decode(float, y, "y")
            vx, vy = decode(float, vx, "vx"), decode(float, vy, "vy")
        det, score = d["detection_id"], d["score"]
        if det is not None and type(det) is not int:
            det = decode(int, det, "detection_id")
        if score is not None and (type(score) is not float or not -_INF < score < _INF):
            score = decode(float, score, "score")
        if score is not None and not include_beta:
            if det is None:
                raise ConfigError("a row with a score and no beta must name its detection_id")
            weights = {det: 1.0}
        return cls(t, track_id, d["status"], x, y, vx, vy, det, score, weights, miss)


_ROW_KEYS = ("t", "track_id", "status", "x", "y", "vx", "vy", "detection_id", "score")
# a row's keys, by include_beta
_ROW_KEY_SETS = {False: frozenset(_ROW_KEYS), True: frozenset(_ROW_KEYS + ("beta",))}
_STATUSES = tuple(s.value for s in TrackStatus)  # a tuple: rows may hold unhashables
_STATUS_TEXT = {status: json.dumps(status) for status in _STATUSES}
# member -> plain text, so a row looks its status up in a dict, not via
# the enum's per-call `.value` descriptor
_STATUS_VALUE = {status: status.value for status in TrackStatus}
_INF = math.inf


def _reject_constant(token: str):
    raise ValueError(f"{token} is not a finite number")


# one decoder for every row: json.loads with a keyword builds a new one per call
_ROW_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


@dataclass
class StepResult:
    t: int
    tracks: list                  # live tracks after the step (survivors + births)
    assignments: list             # SnapshotRecord per pre-existing track, by track id
    births: list
    deletions: list               # track ids deleted this step


def snapshot_record(
    t: int,
    track: Track,
    detection_id: Optional[int],
    score: Optional[float],
    weights: dict,
    miss: Optional[float] = None,
) -> SnapshotRecord:
    """The row of a track as it leaves step t. weights maps detection_id
    to the weight the track consumed: 1 for a hard assignment, the
    association probabilities for a soft one, whose miss probability
    is miss."""
    x, y, vx, vy = track.estimate.x.tolist()
    return SnapshotRecord(
        t, track.track_id, _STATUS_VALUE[track.status], x, y, vx, vy, detection_id, score,
        weights=weights, miss=miss,
    )


def step_result(t: int, tracks: list, assignments: list, births: list) -> StepResult:
    """Close a step over tracks that have finished their lifecycle
    update: the deleted ones leave the live list, births join it."""
    return StepResult(
        t=t,
        tracks=[tr for tr in tracks if tr.status is not TrackStatus.DELETED] + births,
        assignments=assignments,
        births=births,
        deletions=[tr.track_id for tr in tracks if tr.status is TrackStatus.DELETED],
    )


@dataclass
class TrackerRun:
    """Everything one tracker produced over one detection stream."""

    steps: list
    snapshots: list


def run_tracker(
    frames: Sequence[DetectionFrame],
    params: TrackerParams,
    step_fn: Callable[..., StepResult],
) -> TrackerRun:
    """Drive a step function over a detection stream.

    Track ids are unique within the run and never reused. Nothing here
    draws a random number: the run is a pure function of its frames.
    """
    live: list[Track] = []
    id_source = itertools.count()
    steps: list[StepResult] = []
    snapshots: list[SnapshotRecord] = []
    for frame in frames:
        result = step_fn(live, frame, params, id_source=id_source)
        steps.append(result)
        snapshots.extend(result.assignments)
        # a birth's spawning detection is informational, not a consumed update
        snapshots.extend(
            snapshot_record(frame.t, tr, tr.birth_detection_id, None, {})
            for tr in result.births
        )
        live = result.tracks
    return TrackerRun(steps=steps, snapshots=snapshots)


def write_snapshots_jsonl(path, run: TrackerRun, include_beta: bool) -> None:
    """One JSON object per line: t, track_id, status, x, y, vx, vy,
    detection_id, score, and, with include_beta, the beta object of
    SnapshotRecord ({"miss": miss, "<detection_id>": weight, ...} or
    null). The text is what json.dumps with separators (",", ":") writes:
    float.__repr__ and int.__repr__ are its number texts. A NaN or
    infinite value is a ValueError."""
    number, whole = float.__repr__, int.__repr__
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for r in run.snapshots:
            det, score, miss, weights = r.detection_id, r.score, r.miss, r.weights
            line = (
                f'{{"t":{whole(r.t)},"track_id":{whole(r.track_id)},'
                f'"status":{_STATUS_TEXT[r.status]},"x":{number(r.x)},"y":{number(r.y)},'
                f'"vx":{number(r.vx)},"vy":{number(r.vy)},'
                f'"detection_id":{"null" if det is None else whole(det)},'
                f'"score":{"null" if score is None else number(score)}'
            )
            if include_beta:
                if miss is None:
                    line += ',"beta":null'
                else:
                    line += f',"beta":{{"miss":{number(miss)}' + "".join(
                        [f',"{k}":{number(weights[k])}' for k in sorted(weights)]
                    ) + "}"
            # every number follows a colon, and the repr of a non-finite
            # float is nan, inf or -inf
            if ":nan" in line or ":inf" in line or ":-inf" in line:
                raise ValueError(f"snapshot row t={r.t} track {r.track_id}: out of range float")
            fh.write(line + "}\n")


def read_snapshots_jsonl(path, include_beta: bool) -> list[SnapshotRecord]:
    """The rows of a snapshots.jsonl file written with the same
    include_beta. Any bad line (a blank one, invalid JSON, a NaN/Infinity
    token, a missing or unknown key, beta among them, a wrong or
    non-finite value) is a ConfigError naming the file and line."""
    records: list[SnapshotRecord] = []
    number = 0
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for number, line in enumerate(fh, 1):
                row = _ROW_DECODER.decode(line)
                records.append(SnapshotRecord.from_json_dict(row, include_beta))
        except ValueError as exc:  # ConfigError, JSONDecodeError, bad UTF-8
            raise ConfigError(f"{path}: line {number}: {exc}") from None
    return records
