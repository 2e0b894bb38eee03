"""Global Nearest Neighbor tracker.

Hard chi-square gating, then one optimal one-to-one assignment per
frame minimizing total squared Mahalanobis distance. Tracks may stay
unassigned at cost gamma rather than take a forbidden pair; a detection
never updates two tracks in one step.
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np
from scipy.optimize import linear_sum_assignment

from .estimation import KinematicEstimate, gate, kf_predict
# the stacked update under its old name, which perfbench/tracer.py wraps
from .estimation import kf_update_stack as kf_update
from .sensing import DetectionFrame
from .tracking import (
    StepResult,
    TrackerParams,
    birth_tracks,
    lifecycle_update,
    snapshot_record,
    step_result,
)

# stand-in for +inf inside the solver; sums over <= a few dozen entries
# stay far below float overflow
_FORBIDDEN = 1e12


def hungarian(costs: np.ndarray, unassigned_cost: float) -> dict[int, int]:
    """Minimize total assignment cost over a (rows x columns) array with
    +inf marking forbidden pairs; returns {row: column} in row order.

    Each row may instead stay unassigned at unassigned_cost, so the
    objective is sum(assigned costs) + unassigned_cost * n_unassigned.
    Forbidden pairs are never chosen.
    """
    n, m = costs.shape
    if n == 0 or m == 0:
        return {}
    padded = np.full((n, m + n), unassigned_cost)
    padded[:, :m] = np.where(np.isfinite(costs), costs, _FORBIDDEN)
    rows, cols = linear_sum_assignment(padded)
    return {
        r: c for r, c in zip(rows.tolist(), cols.tolist()) if c < m and np.isfinite(costs[r, c])
    }


def gnn_step(
    tracks: list,
    frame: DetectionFrame,
    params: TrackerParams,
    birth_rng: Optional[np.random.Generator] = None,
    *,
    id_source: Iterator[int],
) -> StepResult:
    """One predict-gate-assign-update cycle over a frame.

    Assigned tracks take a Kalman update with the chosen detection and a
    lifecycle hit; unassigned tracks coast on their prediction and take
    a miss. Detections left unassigned spawn tentative tracks.
    """
    tracks = sorted(tracks, key=lambda tr: tr.track_id)
    for track in tracks:
        track.estimate = kf_predict(track.estimate, params.dt_s, params.q)
    # rows are tracks, columns the frame's detections; ungated pairs stay +inf
    costs = np.full((len(tracks), len(frame.detections)), np.inf)
    for row, track in enumerate(tracks):
        gated = gate(frame, track.estimate, params.gamma)
        costs[row, gated.indices] = gated.d2
    assignment = hungarian(costs, params.gamma)

    # every assigned track's update in one stacked call
    if assignment:
        rows, cols = list(assignment), list(assignment.values())
        x, P, _, _ = kf_update(
            np.stack([tracks[row].estimate.x for row in rows]),
            np.stack([tracks[row].estimate.P for row in rows]),
            frame.positions[cols],
            frame.covariances[cols],
        )
        for row, x_i, P_i in zip(rows, x, P):
            tracks[row].estimate = KinematicEstimate(x=x_i, P=P_i)

    records = []
    for row, track in enumerate(tracks):
        col = assignment.get(row)
        if col is not None:
            det_id = frame.detections[col].detection_id
            lifecycle_update(track, True, params)
            cost = float(costs[row, col])
            records.append(snapshot_record(frame.t, track, det_id, cost, {det_id: 1.0}))
        else:
            lifecycle_update(track, False, params)
            records.append(snapshot_record(frame.t, track, None, None, {}))

    assigned = set(assignment.values())
    unassigned = [d for col, d in enumerate(frame.detections) if col not in assigned]
    births = birth_tracks(unassigned, params, birth_rng, id_source=id_source)
    return step_result(frame.t, tracks, records, births)
