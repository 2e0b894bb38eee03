"""Frozen reference computations for the test suite.

The solver oracles import nothing from the package's solver modules:
their results come from independent derivations. The per-track
functions at the end are frozen copies of the trackers' predict, gate,
association and steps as they were before each was batched across
tracks; they carry their own copy of that arithmetic and reuse only the
package's assignment, process noise and lifecycle code. The artifact
codecs last are frozen copies of the CSV and snapshot-row codecs as
they were before each was made column-wise or hand-formatted; they
reuse only the package's JSON value decoder.
"""

import csv
import json
import math
import types
import typing
from typing import NamedTuple

import numpy as np

from spoofbench.codec import _decode_key, check_keys, decode
from spoofbench.errors import ConfigError
from spoofbench.estimation import KinematicEstimate, white_accel_Q
from spoofbench.tracker_gnn import hungarian
from spoofbench.tracking import (
    SnapshotRecord,
    TrackStatus,
    birth_tracks,
    lifecycle_update,
    snapshot_record,
    step_result,
)

INF = float("inf")


def min_cost_by_enumeration(costs, unassigned_cost):
    """Exact minimum of sum(assigned) + unassigned_cost * n_unassigned.

    DP over rows with a bitmask of used columns. Independent of any
    assignment-solver library.
    """
    costs = np.asarray(costs, dtype=float)
    n, m = costs.shape if costs.size else (len(costs), 0)
    best = {0: 0.0}
    for i in range(n):
        nxt = {}
        for mask, acc in best.items():
            # leave row i unassigned
            cand = acc + unassigned_cost
            if cand < nxt.get(mask, INF):
                nxt[mask] = cand
            for j in range(m):
                if mask & (1 << j) or not np.isfinite(costs[i, j]):
                    continue
                cand = acc + costs[i, j]
                key = mask | (1 << j)
                if cand < nxt.get(key, INF):
                    nxt[key] = cand
        best = nxt
    return min(best.values()) if best else 0.0



def assignment_cost(costs, unassigned_cost, assignment):
    """Objective value of an assignment {row: column} over a cost array
    under the solver's padding convention: assigned costs plus
    unassigned_cost per unassigned row."""
    total = 0.0
    for row in range(len(costs)):
        if row in assignment:
            total += float(costs[row, assignment[row]])
        else:
            total += unassigned_cost
    return total

# position-only measurement matrix, restated here rather than imported
H = np.eye(2, 4)


def cv_transition(dt):
    """Constant-velocity transition F for one step of dt seconds."""
    F = np.eye(4)
    F[0, 2] = F[1, 3] = dt
    return F


def nees(est, x_true):
    """Normalized estimation error squared of an estimate against a true state."""
    e = est.x - np.asarray(x_true, dtype=float)
    return float(e @ np.linalg.solve(est.P, e))


def mahalanobis2_by_solve(z, x, P, R):
    """nu^T S^-1 nu with S = H P H^T + R, by a general linear solve."""
    S = H @ P @ H.T + R
    nu = z - H @ x
    return float(nu @ np.linalg.solve(S, nu))


def kf_update_by_solve(x, P, z, R):
    """Textbook Kalman update: gain by a linear solve, Joseph-form covariance."""
    S = H @ P @ H.T + R
    K = np.linalg.solve(S, H @ P).T
    I_KH = np.eye(4) - K @ H
    P_post = I_KH @ P @ I_KH.T + K @ R @ K.T
    return x + K @ (z - H @ x), 0.5 * (P_post + P_post.T)


def _mul2(A, B):
    """Product of Python-float matrices (n, 2) and (2, m), as a0 b0 + a1 b1."""
    return [[a0 * b0 + a1 * b1 for b0, b1 in zip(*B)] for a0, a1 in A]


def kf_update_per_row(x, P, z, R):
    """One Joseph-form update, as the trackers made it once per
    (track, detection) pair: closed-form 2x2 inverse of S, then each
    product summed over Python floats in the stacked update's order.
    Returns (x, P)."""
    x, P, z, R = x.tolist(), P.tolist(), z.tolist(), R.tolist()
    (s00, s01), (s10, s11) = [[P[i][j] + R[i][j] for j in (0, 1)] for i in (0, 1)]
    det = s00 * s11 - s01 * s10
    if not 0.0 < det < INF:
        raise np.linalg.LinAlgError(f"degenerate innovation covariance, det={det}")
    K = _mul2([row[:2] for row in P], [[s11 / det, -s01 / det], [-s10 / det, s00 / det]])
    Kt = [list(col) for col in zip(*K)]
    x_post = [x_i + k for x_i, (k,) in zip(x, _mul2(K, [[z[0] - x[0]], [z[1] - x[1]]]))]
    # (I - KH) P is P - K P[:2] for H = [I 0]; then the Joseph form
    A = [[p - q for p, q in zip(*rows)] for rows in zip(P, _mul2(K, P[:2]))]
    A_Kt, K_R_Kt = _mul2([row[:2] for row in A], Kt), _mul2(_mul2(K, R), Kt)
    P_post = np.array([[a - b + c for a, b, c in zip(*rows)] for rows in zip(A, A_Kt, K_R_Kt)])
    return np.array(x_post), 0.5 * (P_post + P_post.T)


def kf_predict_per_track(est, dt, q):
    """One track's constant-velocity predict: F = I + dt (velocity ->
    position) as row adds, then column adds, on Python floats."""
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if not (np.all(np.isfinite(est.x)) and np.all(np.isfinite(est.P))):
        raise ValueError("non-finite state estimate")
    px, py, vx, vy = est.x.tolist()
    r0, r1, r2, r3 = est.P.tolist()
    r0 = [a + dt * c for a, c in zip(r0, r2)]
    r1 = [b + dt * d for b, d in zip(r1, r3)]
    FPF = np.array([[a + dt * c, b + dt * d, c, d] for a, b, c, d in (r0, r1, r2, r3)])
    P = FPF + white_accel_Q(dt, q)
    return KinematicEstimate(x=np.array([px + dt * vx, py + dt * vy, vx, vy]), P=0.5 * (P + P.T))


class TrackGate(NamedTuple):
    """One track's gated detections, ordered by detection_id: frame
    indices (k,), ids, squared Mahalanobis distances (k,) and innovation
    covariances (k, 2, 2)."""

    indices: np.ndarray
    detection_ids: tuple
    d2: np.ndarray
    S: np.ndarray


def gate_per_track(frame, est, gamma):
    """One track scored against a frame in closed form; raises
    LinAlgError if any detection's S is degenerate."""
    if gamma < 0.0:
        raise ValueError("gamma must be non-negative")
    S = est.P[:2, :2] + frame.covariances
    n0, n1 = (frame.positions - est.x[:2]).T
    s00, s01, s10, s11 = S[:, 0, 0], S[:, 0, 1], S[:, 1, 0], S[:, 1, 1]
    det = s00 * s11 - s01 * s10
    ok = (det > 0.0) & (det < INF)
    if not ok.all():
        raise np.linalg.LinAlgError(f"degenerate innovation covariance, det={det[~ok][0]}")
    d2 = (s11 * n0 * n0 - (s01 + s10) * n0 * n1 + s00 * n1 * n1) / det
    keep = np.flatnonzero(d2 <= gamma)
    ids = tuple(frame.detections[i].detection_id for i in keep.tolist())
    return TrackGate(keep, ids, d2[keep], S[keep])


def association_per_track(gated, params):
    """(miss, betas) of one track's TrackGate: Gaussian likelihoods
    shared out over the gate plus the clutter mass C."""
    if len(gated.indices) == 0:
        return 1.0, {}
    C = params.clutter_density * (1.0 - params.p_detect) / params.p_detect
    S = gated.S
    det_S = S[:, 0, 0] * S[:, 1, 1] - S[:, 0, 1] * S[:, 1, 0]
    likes = [
        math.exp(-0.5 * d2) / (2.0 * math.pi * math.sqrt(det))
        for d2, det in zip(gated.d2.tolist(), det_S.tolist())
    ]
    denom = C + sum(likes)
    return C / denom, {det_id: like / denom for det_id, like in zip(gated.detection_ids, likes)}


def gnn_step_per_track(tracks, frame, params, *, id_source):
    """GNN step that predicts, gates and updates one track at a time."""
    tracks = sorted(tracks, key=lambda tr: tr.track_id)
    for track in tracks:
        track.estimate = kf_predict_per_track(track.estimate, params.dt_s, params.q)
    costs = np.full((len(tracks), len(frame.detections)), INF)
    for row, track in enumerate(tracks):
        gated = gate_per_track(frame, track.estimate, params.gamma)
        costs[row, gated.indices] = gated.d2
    assignment = hungarian(costs, params.gamma)
    records = []
    for row, track in enumerate(tracks):
        col = assignment.get(row)
        if col is not None:
            det = frame.detections[col]
            est = track.estimate
            est.x, est.P = kf_update_per_row(est.x, est.P, det.z, det.R)
            lifecycle_update(track, True, params)
            cost = float(costs[row, col])
            det_id = det.detection_id
            records.append(snapshot_record(frame.t, track, det_id, cost, {det_id: 1.0}))
        else:
            lifecycle_update(track, False, params)
            records.append(snapshot_record(frame.t, track, None, None, {}))
    assigned = set(assignment.values())
    unassigned = [d for col, d in enumerate(frame.detections) if col not in assigned]
    births = birth_tracks(unassigned, params, id_source=id_source)
    return step_result(frame.t, tracks, records, births)


def _composite_update_per_track(track, gated, miss, betas, frame):
    """Moment-matched mixture with one Kalman update call per gated
    detection; the mixture sums start from zero, miss first."""
    prior = track.estimate
    means = [prior.x]
    covs = [prior.P]
    weights = [miss]
    for index, det_id in zip(gated.indices, gated.detection_ids):
        det = frame.detections[index]
        x_post, P_post = kf_update_per_row(prior.x, prior.P, det.z, det.R)
        means.append(x_post)
        covs.append(P_post)
        weights.append(betas[det_id])
    x = np.zeros(4)
    for w, m in zip(weights, means):
        x += w * m
    P = np.zeros((4, 4))
    for w, m, c in zip(weights, means, covs):
        dm = m - x
        P += w * (c + np.outer(dm, dm))
    prior.x = x
    prior.P = 0.5 * (P + P.T)


def jpda_step_per_track(tracks, frame, params, *, id_source):
    """JPDA step that predicts, gates, weights and updates one track at a
    time."""
    tracks = sorted(tracks, key=lambda tr: tr.track_id)
    for track in tracks:
        track.estimate = kf_predict_per_track(track.estimate, params.dt_s, params.q)
    gated_ids = set()
    records = []
    for track in tracks:
        gated = gate_per_track(frame, track.estimate, params.gamma)
        gated_ids.update(gated.detection_ids)
        miss, betas = association_per_track(gated, params)
        if len(gated.indices) > 0:
            _composite_update_per_track(track, gated, miss, betas, frame)
        evidence = 1.0 - miss
        hit = evidence >= params.hit_threshold
        lifecycle_update(track, hit, params)
        best = min(betas, key=lambda k: (-betas[k], k)) if hit and betas else None
        score = evidence if len(gated.indices) > 0 else None
        records.append(snapshot_record(frame.t, track, best, score, betas, miss))
    unassigned = [d for d in frame.detections if d.detection_id not in gated_ids]
    births = birth_tracks(unassigned, params, id_source=id_source)
    return step_result(frame.t, tracks, records, births)


def write_csv_per_cell(path, header, rows):
    """write_csv, one row and one cell at a time."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(
            [repr(float(v)) if isinstance(v, float) else v for v in row] for row in rows
        )


def _parse_cell(text, name, tp, optional):
    if text == "":
        if optional:
            return None
        raise ConfigError(f"{name} must not be empty")
    if tp is str:
        return text
    try:
        value = tp(text)
    except ValueError:
        value = None
    if tp is int:
        if value is None or str(value) != text:
            raise ConfigError(f"{name} must be a decimal integer, got {text!r}")
    elif value is None or not math.isfinite(value):
        raise ConfigError(f"{name} must be a finite number, got {text!r}")
    return value


def read_csv_per_cell(path, row_type, check=None):
    """read_csv, one row and one cell at a time."""
    columns = []
    for name, tp in typing.get_type_hints(row_type).items():
        optional = typing.get_origin(tp) in (typing.Union, types.UnionType)
        columns.append((name, typing.get_args(tp)[0] if optional else tp, optional))
    names = [name for name, _, _ in columns]
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header != names:
                raise ConfigError(f"header must be {names}, got {header}")
            for cells in reader:
                if len(cells) != len(names):
                    raise ConfigError(f"expected {len(names)} cells, got {len(cells)}")
                row = row_type._make(
                    [_parse_cell(text, *column) for text, column in zip(cells, columns)]
                )
                if check is not None:
                    check(row)
                rows.append(row)
        except (ValueError, csv.Error) as exc:
            raise ConfigError(f"{path}: line {max(reader.line_num, 1)}: {exc}") from None
    return rows


_ROW_KEYS = ("t", "track_id", "status", "x", "y", "vx", "vy", "detection_id", "score")
_STATUSES = tuple(s.value for s in TrackStatus)


def snapshot_json_dict(record, include_beta):
    """A SnapshotRecord's row as a JSON object: the nine row keys, and
    with include_beta its beta object, or None for a hard row."""
    row = {key: getattr(record, key) for key in _ROW_KEYS}
    if include_beta:
        row["beta"] = None if record.miss is None else {
            "miss": record.miss, **{str(k): record.weights[k] for k in sorted(record.weights)}
        }
    return row


def snapshot_row_text(record, include_beta):
    """One line of snapshots.jsonl, by json.dumps."""
    row = snapshot_json_dict(record, include_beta)
    return json.dumps(row, separators=(",", ":"), allow_nan=False) + "\n"


def snapshot_from_json_dict(d, include_beta):
    """SnapshotRecord.from_json_dict, one codec decode per leaf."""
    keys = {*_ROW_KEYS, "beta"} if include_beta else set(_ROW_KEYS)
    if type(d) is not dict or d.keys() != keys:
        check_keys(d, keys, keys, "row")
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
            if key == "miss":
                miss = decode(float, value, "beta.miss")
            else:
                weights[_decode_key(int, key, "beta")] = decode(float, value, f"beta.{key}")
    det, score = d["detection_id"], d["score"]
    record = SnapshotRecord(
        t=decode(int, d["t"], "t"),
        track_id=decode(int, d["track_id"], "track_id"),
        status=d["status"],
        x=decode(float, d["x"], "x"),
        y=decode(float, d["y"], "y"),
        vx=decode(float, d["vx"], "vx"),
        vy=decode(float, d["vy"], "vy"),
        detection_id=None if det is None else decode(int, det, "detection_id"),
        score=None if score is None else decode(float, score, "score"),
        weights=weights,
        miss=miss,
    )
    # a hard row with a score consumed its detection whole
    if record.score is not None and not include_beta:
        if record.detection_id is None:
            raise ConfigError("a row with a score and no beta must name its detection_id")
        record.weights = {record.detection_id: 1.0}
    return record


def _reject_constant(token):
    raise ValueError(f"{token} is not a finite number")


def read_snapshots_per_row(path, include_beta):
    """read_snapshots_jsonl, one codec decode per leaf; it skips blank
    lines, which the package reads as faults."""
    decoder = json.JSONDecoder(parse_constant=_reject_constant)
    records = []
    number = 0
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for number, line in enumerate(fh, 1):
                if line.strip():
                    records.append(snapshot_from_json_dict(decoder.decode(line), include_beta))
        except ValueError as exc:
            raise ConfigError(f"{path}: line {number}: {exc}") from None
    return records
