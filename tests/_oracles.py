"""Frozen reference computations for the test suite.

The solver oracles import nothing from the package's solver modules:
their results come from independent derivations. The per-track step
functions at the end are frozen copies of the trackers' steps as they
were before the Kalman update was batched; they carry their own copy of
that update and reuse the package's gate, assignment, association and
lifecycle code, which batching left alone.
"""

import numpy as np

from spoofbench.estimation import gate, kf_predict
from spoofbench.tracker_gnn import build_cost_matrix, hungarian
from spoofbench.tracker_jpda import association_probabilities
from spoofbench.tracking import birth_tracks, lifecycle_update, snapshot_record, step_result

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



def assignment_cost(costs, assignment):
    """Objective value of an assignment {track_id: detection_id} over a
    CostMatrix under its padding convention: assigned costs plus
    unassigned_cost per unassigned track."""
    total = 0.0
    row_of = {tid: i for i, tid in enumerate(costs.track_ids)}
    col_of = {did: j for j, did in enumerate(costs.detection_ids)}
    for track_id in costs.track_ids:
        if track_id in assignment:
            total += float(costs.costs[row_of[track_id], col_of[assignment[track_id]]])
        else:
            total += costs.unassigned_cost
    return total

# position-only measurement matrix, restated here rather than imported
H = np.eye(2, 4)


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


def kf_update_per_row(x, P, z, R):
    """One Joseph-form update, as the trackers made it once per
    (track, detection) pair: closed-form 2x2 inverse of S, 2-D products.
    Returns (x, P)."""
    S = P[:2, :2] + R
    det = S[0, 0] * S[1, 1] - S[0, 1] * S[1, 0]
    if not 0.0 < det < np.inf:
        raise np.linalg.LinAlgError(f"degenerate innovation covariance, det={det}")
    K = P[:, :2] @ (np.array([[S[1, 1], -S[0, 1]], [-S[1, 0], S[0, 0]]]) / det)
    x_post = x + K @ (z - x[:2])
    I_KH = np.eye(4) - K @ H
    P_post = I_KH @ P @ I_KH.T + K @ R @ K.T
    return x_post, 0.5 * (P_post + P_post.T)


def gnn_step_per_track(tracks, frame, params, birth_rng=None, *, id_source):
    """GNN step with one Kalman update call per assigned track."""
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
            est = track.estimate
            est.x, est.P = kf_update_per_row(est.x, est.P, det.z, det.R)
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


def _composite_update_per_track(track, gated, beta, frame):
    """Moment-matched mixture with one Kalman update call per gated
    detection; the mixture sums start from zero, miss first."""
    prior = track.estimate
    means = [prior.x]
    covs = [prior.P]
    weights = [beta.miss]
    for index, det_id in zip(gated.indices, gated.detection_ids):
        det = frame.detections[index]
        x_post, P_post = kf_update_per_row(prior.x, prior.P, det.z, det.R)
        means.append(x_post)
        covs.append(P_post)
        weights.append(beta.betas[det_id])
    x = np.zeros(4)
    for w, m in zip(weights, means):
        x += w * m
    P = np.zeros((4, 4))
    for w, m, c in zip(weights, means, covs):
        dm = m - x
        P += w * (c + np.outer(dm, dm))
    prior.x = x
    prior.P = 0.5 * (P + P.T)


def jpda_step_per_track(tracks, frame, params, birth_rng=None, *, id_source):
    """JPDA step that gates, weights and updates one track at a time."""
    tracks = sorted(tracks, key=lambda tr: tr.track_id)
    for track in tracks:
        track.estimate = kf_predict(track.estimate, params.dt_s, params.q)
    gated_ids = set()
    records = []
    for track in tracks:
        gated = gate(frame, track.estimate, None, params.gamma)
        gated_ids.update(gated.detection_ids)
        beta = association_probabilities(gated, params)
        if len(gated) > 0:
            _composite_update_per_track(track, gated, beta, frame)
        evidence = 1.0 - beta.miss
        hit = evidence >= params.hit_threshold
        lifecycle_update(track, hit, params)
        best = min(beta.betas, key=lambda k: (-beta.betas[k], k)) if hit and beta.betas else None
        score = evidence if len(gated) > 0 else None
        records.append(
            snapshot_record(frame.t, track, best, score, beta.betas, beta.as_json_dict())
        )
    unassigned = [d for d in frame.detections if d.detection_id not in gated_ids]
    births = birth_tracks(unassigned, params, birth_rng, id_source=id_source)
    return step_result(frame.t, tracks, records, births)
