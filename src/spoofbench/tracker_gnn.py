"""Global Nearest Neighbor tracker.

Hard chi-square gating, then one optimal one-to-one assignment per
frame minimizing total squared Mahalanobis distance. Tracks may stay
unassigned at cost gamma rather than take a forbidden pair; a detection
never updates two tracks in one step.
"""

from __future__ import annotations

import math
from heapq import heapify, heappop, heappush
from typing import Iterator, Optional

import numpy as np

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
                if d + pi_dst[t] < d_sink:
                    d_sink, via = d + pi_dst[t], ~t
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
