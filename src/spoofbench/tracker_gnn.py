"""Global Nearest Neighbor tracker.

Hard chi-square gating, then one optimal one-to-one assignment per
frame minimizing total squared Mahalanobis distance. Tracks may stay
unassigned at cost gamma rather than take a forbidden pair; a detection
never updates two tracks in one step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np
from scipy.optimize import linear_sum_assignment

from .estimation import gate, kf_predict, kf_update
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


@dataclass(frozen=True)
class CostMatrix:
    """Rows are tracks, columns are the frame's detections; entries are
    squared Mahalanobis distances with +inf marking ungated pairs."""

    costs: np.ndarray
    track_ids: tuple[int, ...]
    detection_ids: tuple[int, ...]
    unassigned_cost: float

    @property
    def shape(self) -> tuple[int, int]:
        return self.costs.shape


def build_cost_matrix(tracks, frame: DetectionFrame, params: TrackerParams) -> CostMatrix:
    """Gate every (predicted) track against the frame and assemble the
    assignment costs. Uses each detection's own reported covariance."""
    track_ids = tuple(tr.track_id for tr in tracks)
    det_ids = tuple(d.detection_id for d in frame.detections)
    costs = np.full((len(tracks), len(det_ids)), np.inf)
    for row, track in enumerate(tracks):
        gated = gate(frame, track.estimate, None, params.gamma)
        for idx, d2 in zip(gated.indices, gated.d2):
            costs[row, idx] = d2
    return CostMatrix(
        costs=costs,
        track_ids=track_ids,
        detection_ids=det_ids,
        unassigned_cost=params.gamma,
    )


def hungarian(costs: CostMatrix) -> dict[int, int]:
    """Minimize total assignment cost; returns {track_id: detection_id}.

    Each row may instead stay unassigned at unassigned_cost, so the
    objective is sum(assigned costs) + unassigned_cost * n_unassigned.
    Forbidden (+inf) pairs are never chosen.
    """
    n, m = costs.shape
    if n == 0 or m == 0:
        return {}
    padded = np.full((n, m + n), costs.unassigned_cost)
    finite = np.where(np.isfinite(costs.costs), costs.costs, _FORBIDDEN)
    padded[:, :m] = finite
    rows, cols = linear_sum_assignment(padded)
    assignment: dict[int, int] = {}
    for r, c in zip(rows, cols):
        if c < m and np.isfinite(costs.costs[r, c]):
            assignment[costs.track_ids[r]] = costs.detection_ids[c]
    return assignment


def assignment_cost(costs: CostMatrix, assignment: dict[int, int]) -> float:
    """Objective value of an assignment under the padding convention."""
    total = 0.0
    row_of = {tid: i for i, tid in enumerate(costs.track_ids)}
    col_of = {did: j for j, did in enumerate(costs.detection_ids)}
    for track_id in costs.track_ids:
        if track_id in assignment:
            total += float(costs.costs[row_of[track_id], col_of[assignment[track_id]]])
        else:
            total += costs.unassigned_cost
    return total


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
    cm = build_cost_matrix(tracks, frame, params)
    assignment = hungarian(cm)
    det_by_id = {d.detection_id: d for d in frame.detections}
    col_of = {did: j for j, did in enumerate(cm.detection_ids)}

    records = []
    for row, track in enumerate(tracks):
        det_id = assignment.get(track.track_id)
        if det_id is not None:
            det = det_by_id[det_id]
            track.estimate, _, _ = kf_update(track.estimate, det.z, det.R)
            lifecycle_update(track, True, params)
            cost = float(cm.costs[row, col_of[det_id]])
            records.append(snapshot_record(frame.t, track, det_id, cost, {det_id: 1.0}))
        else:
            lifecycle_update(track, False, params)
            records.append(snapshot_record(frame.t, track, None, None, {}))

    assigned_ids = set(assignment.values())
    unassigned = [d for d in frame.detections if d.detection_id not in assigned_ids]
    births = birth_tracks(unassigned, params, birth_rng, id_source=id_source)
    return step_result(frame.t, tracks, records, births)
