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
from spoofbench.tracker_gnn import hungarian
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


def gnn_step_per_track(tracks, frame, params, birth_rng=None, *, id_source):
    """GNN step with one Kalman update call per assigned track."""
    tracks = sorted(tracks, key=lambda tr: tr.track_id)
    for track in tracks:
        track.estimate = kf_predict(track.estimate, params.dt_s, params.q)
    costs = np.full((len(tracks), len(frame.detections)), INF)
    for row, track in enumerate(tracks):
        gated = gate(frame, track.estimate, params.gamma)
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
    births = birth_tracks(unassigned, params, birth_rng, id_source=id_source)
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


def jpda_step_per_track(tracks, frame, params, birth_rng=None, *, id_source):
    """JPDA step that gates, weights and updates one track at a time."""
    tracks = sorted(tracks, key=lambda tr: tr.track_id)
    for track in tracks:
        track.estimate = kf_predict(track.estimate, params.dt_s, params.q)
    gated_ids = set()
    records = []
    for track in tracks:
        gated = gate(frame, track.estimate, params.gamma)
        gated_ids.update(gated.detection_ids)
        miss, betas = association_probabilities(gated, params)
        if len(gated) > 0:
            _composite_update_per_track(track, gated, miss, betas, frame)
        evidence = 1.0 - miss
        hit = evidence >= params.hit_threshold
        lifecycle_update(track, hit, params)
        best = min(betas, key=lambda k: (-betas[k], k)) if hit and betas else None
        score = evidence if len(gated) > 0 else None
        records.append(snapshot_record(frame.t, track, best, score, betas, miss))
    unassigned = [d for d in frame.detections if d.detection_id not in gated_ids]
    births = birth_tracks(unassigned, params, birth_rng, id_source=id_source)
    return step_result(frame.t, tracks, records, births)
