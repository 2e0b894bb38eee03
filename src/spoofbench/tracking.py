"""Track lifecycle and the tracker-agnostic run loop.

Both trackers drive the same machinery: run_tracker carries the live
tracks from frame to frame as one TrackBank. A step function predicts,
gates and updates the bank's rows, runs their lifecycle, takes their
rows (snapshot_rows), drops the deleted ones and appends births, whose
rows birth_tracks writes, and returns both sets of rows as a
StepResult; run_tracker appends them to the run's rows. Provenance stays
on the detections: the metrics look it up by (t, detection_id) in the
spoofed stream, and the tracking layer reads a frame only as its columns
(t, ids, positions, covariances), so no tracker reads labels or truth.
Confirmation is M-of-N on the hit history; deletion is a consecutive
miss streak.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from enum import Enum
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .codec import Record, _decode_key, bounded, check_keys, decode
from .errors import ConfigError
from .estimation import GAMMA_DEFAULT, V_MAX_DEFAULT, GateResult
from .estimation import estimate_from_detection, gate_stack, kf_predict_stack
from .geometry import MAX_SPEED_MPS
from .sensing import DetectionFrame

# Bound on q, the white acceleration's variance: as much headroom as
# v_max_mps gets from geometry.MAX_SPEED_MPS. A track that coasts a whole
# scenario, scenario.MAX_STEPS steps of scenario.DT_MAX_S, from a
# detection of sensing.MAX_SIGMA_M noise ends with a position variance of
# 2.1e34 m^2 at these bounds; every innovation covariance determinant
# stays below 1e70, far from overflow. A Kalman update only shrinks a
# covariance, so coasting is a hard associator's worst case.
MAX_Q = 1e20


class TrackStatus(str, Enum):
    TENTATIVE = "tentative"
    CONFIRMED = "confirmed"
    DELETED = "deleted"


@dataclass
class TrackerParams(Record):
    dt_s: float = bounded(1.0, low=0.0, open_low=True)
    gamma: float = bounded(GAMMA_DEFAULT, low=0.0)
    q: float = bounded(1.0, low=0.0, high=MAX_Q)  # process noise scale
    p_detect: float = bounded(0.9, low=0.0, high=1.0, open_low=True)  # assumed by JPDA
    clutter_density: float = bounded(0.0, low=0.0)  # expected clutter per m^2 (JPDA miss mass)
    confirm_hits: int = 2  # M of the M-of-N confirmation rule
    confirm_window: int = bounded(3, low=1, high=sys.maxsize)  # N; the hit history's maxlen
    delete_misses: int = bounded(5, low=1)  # consecutive misses before deletion
    v_max_mps: float = bounded(V_MAX_DEFAULT, low=0.0, high=MAX_SPEED_MPS, open_low=True)
    hit_threshold: float = bounded(0.5, low=0.0, high=1.0)  # JPDA: hit iff 1 - beta_miss >= this

    def __post_init__(self) -> None:
        super().__post_init__()
        if not math.isfinite(self.miss_mass):
            raise ConfigError(
                f"clutter_density {self.clutter_density} at p_detect {self.p_detect} makes"
                " JPDA's miss mass clutter_density * (1 - p_detect) / p_detect overflow"
            )
        if not 1 <= self.confirm_hits <= self.confirm_window:
            raise ConfigError("need 1 <= confirm_hits <= confirm_window")

    @property
    def miss_mass(self) -> float:
        """JPDA's clutter/miss mass, clutter_density (1 - p_detect) / p_detect."""
        return self.clutter_density * (1.0 - self.p_detect) / self.p_detect


@dataclass(eq=False)  # rows hold arrays, which == does not reduce to a bool
class TrackBank:
    """The live tracks of a run, one row each in track-id order: means x
    (N, 4), covariances P (N, 4, 4), and per row the track id, status,
    consecutive miss streak and hit history (booleans over the last
    confirm_window steps). x and P always own their memory."""

    ids: list = field(default_factory=list)
    x: np.ndarray = field(default_factory=lambda: np.zeros((0, 4)))
    P: np.ndarray = field(default_factory=lambda: np.zeros((0, 4, 4)))
    status: list = field(default_factory=list)
    miss_streak: list = field(default_factory=list)
    hit_history: list = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.ids)


# the members, in definition order, as globals: a lookup on the class costs more
_TENTATIVE, _CONFIRMED, _DELETED = TrackStatus


class TrackStack:
    """One step's bank, predicted and gated against its frame by one
    stacked kernel call each. A step reads each row through one
    predict_row and one gate_row call (which perfbench/tracer.py times
    and counts); the first read of each runs its kernel over all rows."""

    def __init__(self, bank: TrackBank, frame: DetectionFrame, params: TrackerParams):
        self.bank, self.frame, self.params = bank, frame, params

    @cached_property
    def predicted(self) -> tuple[np.ndarray, np.ndarray]:
        return kf_predict_stack(self.bank.x, self.bank.P, self.params.dt_s, self.params.q)

    @cached_property
    def gated(self) -> GateResult:
        return gate_stack(self.frame, *self.predicted, self.params.gamma)


def predict_row(stack: TrackStack, row: int) -> tuple[np.ndarray, np.ndarray]:
    """Row's prediction (x, P), views into the stack."""
    x, P = stack.predicted
    return x[row], P[row]


def gate_row(stack: TrackStack, row: int) -> GateResult:
    """Row's gate, a one-row GateResult; len() counts its detections."""
    g, end = stack.gated, row + 1
    return GateResult(g.d2[row:end], g.S[row:end], g.inside[row:end], g.detection_ids)


def lifecycle_update(bank: TrackBank, hits: Sequence[bool], params: TrackerParams) -> None:
    """Advance each row's confirmation/deletion state after its hit or
    miss, hits[i] (a bool) being row i's; a deleted row is refused."""
    status, streaks, histories = bank.status, bank.miss_streak, bank.hit_history
    for row, hit in enumerate(hits):
        if status[row] is _DELETED:
            raise ValueError(f"track {bank.ids[row]} already deleted")
        history = histories[row]
        history.append(hit)
        streak = streaks[row] = 0 if hit else streaks[row] + 1
        # a row that is deleted ends deleted, confirmed on this step or not
        if streak >= params.delete_misses:
            status[row] = _DELETED
        elif status[row] is _TENTATIVE and sum(history) >= params.confirm_hits:
            status[row] = _CONFIRMED


def drop_deleted(bank: TrackBank) -> None:
    """Remove the rows whose lifecycle ended, in one fancy-index pass
    over x and P."""
    gone = [row for row, s in enumerate(bank.status) if s is _DELETED]
    if not gone:
        return
    keep = np.ones(len(bank), dtype=bool)
    keep[gone] = False
    bank.x, bank.P = bank.x[keep], bank.P[keep]
    for column in (bank.ids, bank.status, bank.miss_streak, bank.hit_history):
        for row in reversed(gone):
            del column[row]


def birth_tracks(
    bank: TrackBank,
    frame: DetectionFrame,
    born: np.ndarray,
    params: TrackerParams,
    *,
    id_source: Iterator[int],
) -> list[SnapshotRecord]:
    """Append a tentative row for each column of the frame that born, a
    boolean per column, marks, in column (so detection-id) order; the
    detection counts as the row's first hit. Returns the births' rows
    for the frame's step. Their track ids come from id_source, which
    must yield them above every id in the bank. A birth's row names its
    spawning detection, but has no score and consumed no weight: the
    detection started the track, it did not update it."""
    cols = np.flatnonzero(born).tolist()
    if not cols:
        return []
    ids = [next(id_source) for _ in cols]
    order = bank.ids[-1:] + ids
    if any(a >= b for a, b in zip(order, order[1:])):
        raise ValueError(f"track ids must increase, got {order}")
    x, P = estimate_from_detection(
        frame.positions[cols], frame.covariances[cols], params.v_max_mps
    )
    start = len(bank)
    bank.x = np.concatenate((bank.x, x))
    bank.P = np.concatenate((bank.P, P))
    bank.ids += ids
    bank.status += [_TENTATIVE] * len(ids)
    bank.miss_streak += [0] * len(ids)
    bank.hit_history += [deque((True,), maxlen=params.confirm_window) for _ in ids]
    det_ids = [frame.ids[col] for col in cols]
    none = itertools.repeat(None)
    return snapshot_rows(frame.t, bank, det_ids, none, [{} for _ in ids], none, start)


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
    assignments: list             # SnapshotRecord per pre-existing track, by track id
    births: list                  # SnapshotRecord per track born this step, by track id


def snapshot_rows(
    t: int, bank: TrackBank, detection_ids: Sequence, scores: Sequence, weights: Sequence,
    misses: Sequence, start: int = 0,
) -> list[SnapshotRecord]:
    """The rows of the bank's tracks from row start on, as they leave
    step t; the sequences give each row's detection_id, score, weights
    and miss in turn. weights maps detection_id to the weight the track
    consumed: 1 for a hard assignment, the association probabilities
    for a soft one, whose miss probability is miss."""
    value = _STATUS_VALUE
    return [
        SnapshotRecord(t, track_id, value[status], x, y, vx, vy, det, score, w, miss)
        for track_id, status, (x, y, vx, vy), det, score, w, miss in zip(
            bank.ids[start:], bank.status[start:], bank.x[start:].tolist(),
            detection_ids, scores, weights, misses,
        )
    ]


@dataclass
class TrackerRun:
    """Everything one tracker produced over one detection stream, and
    the bank its last step left."""

    steps: list
    snapshots: list
    bank: TrackBank


def run_tracker(
    frames: Sequence[DetectionFrame],
    params: TrackerParams,
    step_fn: Callable[..., StepResult],
) -> TrackerRun:
    """Drive a step function over a detection stream, carrying one bank.

    Track ids are unique within the run and never reused. Nothing here
    draws a random number: the run is a pure function of its frames.
    """
    bank = TrackBank()
    id_source = itertools.count()
    steps: list[StepResult] = []
    snapshots: list[SnapshotRecord] = []
    for frame in frames:
        result = step_fn(bank, frame, params, id_source=id_source)
        steps.append(result)
        snapshots += result.assignments
        snapshots += result.births
    return TrackerRun(steps=steps, snapshots=snapshots, bank=bank)


def write_snapshots_jsonl(path, snapshots: Sequence[SnapshotRecord], include_beta: bool) -> None:
    """One JSON object per row, one per line: t, track_id, status, x, y,
    vx, vy, detection_id, score, and, with include_beta, the beta object
    of SnapshotRecord ({"miss": miss, "<detection_id>": weight, ...} or
    null). The text is what json.dumps with separators (",", ":") writes:
    float.__repr__ and int.__repr__ are its number texts. A NaN or
    infinite value is a ValueError."""
    number, whole = float.__repr__, int.__repr__
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for r in snapshots:
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
