"""Global Nearest Neighbor tracker.

Hard chi-square gating, then one optimal one-to-one assignment per
frame minimizing total squared Mahalanobis distance. Tracks may stay
unassigned at cost gamma rather than take a forbidden pair; a detection
never updates two tracks in one step.
"""

from __future__ import annotations

import math
from heapq import heapify, heappop, heappush
from typing import Iterator

import numpy as np

from .sensing import DetectionFrame
from .tracking import StepResult, TrackBank, TrackerParams, TrackStack
from .tracking import birth_tracks, drop_deleted, lifecycle_update, snapshot_rows
# under the names that perfbench/tracer.py wraps: the stacked update, and
# each row's read of the step's stacked predict and gate (TrackStack)
from .estimation import kf_update_stack as kf_update
from .tracking import gate_row as gate, predict_row as kf_predict


def hungarian(costs: np.ndarray, unassigned_cost: float) -> dict[int, int]:
    """Minimize total assignment cost over a (rows x columns) array;
    returns {row: column} in row order, as Python ints.

    Each row may instead stay unassigned at unassigned_cost, so the
    objective is sum(assigned costs) + unassigned_cost * n_unassigned,
    and each column takes at most one row. The contract:

    - only pairs whose cost is finite and strictly below unassigned_cost
      are candidates; a pair that costs exactly unassigned_cost saves
      nothing and is never taken;
    - +inf, -inf and NaN entries are forbidden and never taken, however
      large unassigned_cost is (``costs < unassigned_cost`` alone would
      admit -inf);
    - unassigned_cost must be finite (ValueError otherwise), and each
      candidate's cost - unassigned_cost must not overflow, which holds
      for the non-negative costs that the trackers and metrics pass.

    The solver minimizes in savings form: taking a candidate pair adds
    cost - unassigned_cost < 0 to the total, and leaving a row or a
    column unassigned adds 0. That needs no dummy columns, and rows and
    columns play symmetric parts, so `_min_savings_matching` matches the
    smaller side onto the larger one.
    """
    if not math.isfinite(unassigned_cost):
        raise ValueError(f"unassigned_cost must be finite, got {unassigned_cost!r}")
    n, m = costs.shape
    if n == 0 or m == 0:
        return {}
    # sources are the rows of `a`, the smaller side; one flat index pass
    # finds the candidates, grouped by source
    a = costs.T if n > m else costs
    n_src, n_dst = a.shape
    flat = a.ravel()
    keep = np.isfinite(flat)
    keep &= flat < unassigned_cost
    idx = keep.nonzero()[0]
    if not len(idx):
        return {}
    bounds = idx.searchsorted(np.arange(0, n_src * n_dst + 1, n_dst)).tolist()
    dst = (idx % n_dst).tolist()
    savings = (flat[idx] - unassigned_cost).tolist()
    edges = [(dst[lo:hi], savings[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    mate = _min_savings_matching(edges, n_dst)
    if n > m:
        return dict(sorted((row, col) for col, row in enumerate(mate) if row >= 0))
    return {row: col for row, col in enumerate(mate) if col >= 0}


def _min_savings_matching(edges: list, n_dst: int) -> list[int]:
    """Min-cost matching of sources onto targets in savings form;
    returns each source's target, -1 where the source stays unmatched.

    edges[s] is (targets, costs) of source s, every cost negative; an
    unmatched source or target costs 0. Successive shortest
    augmenting paths (Kuhn's Hungarian method in its shortest-path form):
    sources join one at a time, and each takes the cheapest path to a
    sink that ends at a free target or at a matched source that gives
    its target up. Node potentials keep every reduced cost non-negative,
    so Dijkstra finds that path; the sink's potential and every free
    target's stay 0. A search only visits the new source's connected
    component, and a source whose tightest edge leads to a free target
    takes it without a search, which is the common case.
    """
    n_src = len(edges)
    pi_src = [0.0] * n_src
    pi_dst = [0.0] * n_dst
    mate_src = [-1] * n_src
    mate_dst = [-1] * n_dst
    for s, (ts, cs) in enumerate(edges):
        # the smallest potential that leaves no reduced cost out of s
        # negative, and the target of the edge that it makes tight
        p, best = 0.0, -1
        for t, c in zip(ts, cs):
            if pi_dst[t] - c > p:
                p, best = pi_dst[t] - c, t
        pi_src[s] = p
        if best < 0:
            continue
        if mate_dst[best] < 0:
            mate_src[s], mate_dst[best] = best, s
            continue
        # Dijkstra from s over targets; d_sink is the cheapest way to the
        # sink found so far, through `via`: a source that drops its
        # target, or ~t for a free target t. s itself may stay unmatched.
        dist = [math.inf] * n_dst
        pred = [-1] * n_dst
        done = [False] * n_dst
        heap = []
        for t, c in zip(ts, cs):
            dist[t], pred[t] = c + p - pi_dst[t], s
            heap.append((dist[t], t))
        heapify(heap)
        d_sink, via = p, s
        done_dst, done_src = [], [(s, 0.0)]
        while heap:
            d, t = heappop(heap)
            if d >= d_sink:
                break
            if done[t]:
                continue
            done[t] = True
            done_dst.append(t)
            s2 = mate_dst[t]
            if s2 < 0:
                # d < d_sink here, and a free target's potential is 0
                d_sink, via = d, ~t
                continue
            # a matched target passes on to its source at no cost
            done_src.append((s2, d))
            ps = pi_src[s2]
            if d + ps < d_sink:
                d_sink, via = d + ps, s2
            for t2, c in zip(*edges[s2]):
                d2 = d + c + ps - pi_dst[t2]
                if d2 < dist[t2] and not done[t2]:
                    dist[t2], pred[t2] = d2, s2
                    heappush(heap, (d2, t2))
        for t in done_dst:
            pi_dst[t] += dist[t] - d_sink
        for s2, d2 in done_src:
            pi_src[s2] += d2 - d_sink
        # augment back along the path; every source on it takes the
        # target it reached, and the one that ends it drops its own
        if via < 0:
            t = ~via
        elif via != s:
            t, mate_src[via] = mate_src[via], -1
        else:
            t = -1
        while t >= 0:
            s2 = pred[t]
            t_old = mate_src[s2]
            mate_src[s2], mate_dst[t] = t, s2
            t = t_old if s2 != s else -1
    return mate_src


def gnn_step(
    bank: TrackBank, frame: DetectionFrame, params: TrackerParams, *, id_source: Iterator[int]
) -> StepResult:
    """One predict-gate-assign-update cycle of the bank over a frame.

    Assigned tracks take a Kalman update with the chosen detection and a
    lifecycle hit; unassigned tracks coast on their prediction and take
    a miss. Detections left unassigned spawn tentative tracks.
    """
    # the bank is predicted and gated by one kernel call each, and each
    # row read once; rows are tracks, columns the frame's detections
    stack = TrackStack(bank, frame, params)
    for row in range(len(bank)):
        kf_predict(stack, row)
        gate(stack, row)
    x, P = stack.predicted
    gated = stack.gated
    costs = np.where(gated.inside, gated.d2, np.inf)  # ungated pairs cost +inf
    assignment = hungarian(costs, params.gamma)

    # every assigned row's update in one stacked call; the rest coast
    n = len(bank)
    rows, cols = list(assignment), list(assignment.values())
    hits, det_ids, scores, weights = [False] * n, [None] * n, [None] * n, [{} for _ in range(n)]
    if assignment:
        x[rows], P[rows], _, _ = kf_update(
            x[rows], P[rows], frame.positions[cols], frame.covariances[cols]
        )
        for row, col, cost in zip(rows, cols, costs[rows, cols].tolist()):
            det_id = frame.ids[col]
            hits[row], det_ids[row], scores[row], weights[row] = True, det_id, cost, {det_id: 1.0}
    bank.x, bank.P = x, P

    lifecycle_update(bank, hits, params)
    records = snapshot_rows(frame.t, bank, det_ids, scores, weights, [None] * n)
    drop_deleted(bank)
    born = np.ones(len(frame.ids), dtype=bool)
    born[cols] = False
    births = birth_tracks(bank, frame, born, params, id_source=id_source)
    return StepResult(records, births)
