"""Frozen reference computations for the test suite.

Nothing here may import from the package's solver modules: oracle
results must come from independent derivations.
"""

import numpy as np

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
