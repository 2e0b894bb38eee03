"""Joint Probabilistic Data Association tracker, per-track variant.

Each track is updated with a probability-weighted sum over its gated
detections plus a miss hypothesis. Association probabilities are
normalized per track over the gated set with a clutter/miss mass, so an
extra in-gate detection always dilutes the weights of the others. One
detection may contribute weight to several tracks.
"""

from __future__ import annotations

import math
from functools import reduce
from operator import add
from typing import Iterator, Optional, Sequence

import numpy as np

from .estimation import GateResult
from .sensing import DetectionFrame
from .tracking import (
    StepResult,
    TrackerParams,
    TrackStack,
    birth_tracks,
    lifecycle_update,
    set_estimates,
    snapshot_record,
    step_result,
)
# under the names that perfbench/tracer.py wraps: the stacked update, and
# each track's row of the step's stacked predict and gate (TrackStack)
from .estimation import kf_update_stack as kf_update
from .tracking import gate_row as gate, predict_row as kf_predict


def association_probabilities(gated: GateResult, params: TrackerParams) -> list[tuple[float, dict]]:
    """Association probabilities of each track (row of gated) over its
    gated detections, as (miss, betas): betas maps detection_id to its
    probability in ascending id order and miss is the leftover mass on
    the no-detection hypothesis; they sum to 1.

    Likelihood of detection i is the Gaussian innovation density
    exp(-d2_i / 2) / (2 pi sqrt(det S_i)); the miss/clutter mass is
    C = clutter_density * (1 - p_detect) / p_detect. beta_i is the
    likelihood share of the C-augmented total. An empty gate puts all
    mass on the miss hypothesis. When C is 0 and every likelihood
    underflows to 0, the likelihoods are taken relative to the nearest
    detection's, exp(-(d2_i - min d2) / 2), and miss is 0.
    """
    C = params.clutter_density * (1.0 - params.p_detect) / params.p_detect
    rows, cols = np.nonzero(gated.inside)
    S = gated.S[rows, cols]
    det_S = (S[:, 0, 0] * S[:, 1, 1] - S[:, 0, 1] * S[:, 1, 0]).tolist()
    d2 = gated.d2[rows, cols].tolist()
    ids = [gated.detection_ids[col] for col in cols.tolist()]
    bounds = [0, *np.cumsum(gated.inside.sum(axis=1)).tolist()]
    return [_weigh(ids[lo:hi], d2[lo:hi], det_S[lo:hi], C) for lo, hi in zip(bounds, bounds[1:])]


def _weigh(ids: list, d2: list, det_S: list, C: float, shift: float = 0.0) -> tuple[float, dict]:
    """(miss, betas) of one track's gated set, its likelihoods taken at
    d2 - shift."""
    if not ids:
        return 1.0, {}
    # per-pair math.exp and a left-to-right Python sum, which round
    # differently from their numpy counterparts; not sum(), which
    # compensates from Python 3.12 on
    likes = [
        math.exp(-0.5 * (d - shift)) / (2.0 * math.pi * math.sqrt(det))
        for d, det in zip(d2, det_S)
    ]
    denom = C + reduce(add, likes, 0.0)
    if denom == 0.0:
        # C is 0 and every likelihood underflowed; the nearest detection's
        # is exp(0) at shift min(d2), so this recurses once
        return _weigh(ids, d2, det_S, C, min(d2))
    return C / denom, {det_id: like / denom for det_id, like in zip(ids, likes)}


def _composite_update(
    x: np.ndarray,
    P: np.ndarray,
    inside: np.ndarray,
    probabilities: Sequence[tuple[float, dict]],
    frame: DetectionFrame,
) -> tuple[np.ndarray, np.ndarray]:
    """The moment-matched mixtures of n tracks' priors x (n, 4), P
    (n, 4, 4) (miss) and their per-detection posteriors, weighted by the
    association probabilities; inside (n, M) marks each track's gated
    detections, and a track that gated none is the caller's to skip.

    One stacked Kalman update covers all (track, gated detection) pairs.
    The mixture sums run over hypothesis k for all tracks at once, from
    zero and in the order miss first, then detections by id. A track
    with fewer hypotheses than the most crowded one is padded with
    copies of its miss hypothesis at weight zero, whose terms are +-0.0
    and leave every sum's bits as they were.
    """
    rows, indices = np.nonzero(inside)
    # hypothesis k of each pair: its rank among the track's gated detections
    cols = np.cumsum(inside, axis=1)[rows, indices]
    n, k_max = len(x), 1 + int(cols.max())
    post_x, post_P, _, _ = kf_update(
        x[rows], P[rows], frame.positions[indices], frame.covariances[indices]
    )

    means = np.repeat(x[:, None], k_max, axis=1)
    covs = np.repeat(P[:, None], k_max, axis=1)
    weights = np.zeros((n, k_max))
    means[rows, cols] = post_x
    covs[rows, cols] = post_P
    weights[:, 0] = [miss for miss, _ in probabilities]
    weights[rows, cols] = [beta for _, betas in probabilities for beta in betas.values()]
    x = np.zeros((n, 4))
    for k in range(k_max):
        x += weights[:, k, None] * means[:, k]
    P = np.zeros((n, 4, 4))
    for k in range(k_max):
        dm = means[:, k] - x
        P += weights[:, k, None, None] * (covs[:, k] + dm[:, :, None] * dm[:, None, :])
    return x, 0.5 * (P + P.swapaxes(1, 2))


def jpda_step(
    tracks: list,
    frame: DetectionFrame,
    params: TrackerParams,
    birth_rng: Optional[np.random.Generator] = None,
    *,
    id_source: Iterator[int],
) -> StepResult:
    """One predict-gate-weight-update cycle over a frame.

    The composite update always applies (a mostly-miss step still nudges
    the state by the residual detection mass); the lifecycle hit fires
    iff 1 - beta_miss >= hit_threshold. Detections gated by no track
    spawn tentative tracks.
    """
    tracks = sorted(tracks, key=lambda tr: tr.track_id)
    # each track takes its prediction and is gated, one kernel call each
    # per step; row i is track i's gate
    stack = TrackStack(tracks, frame, params)
    for row, track in enumerate(tracks):
        track.estimate = kf_predict(stack, row)
        gate(stack, row)
    x, P = stack.predicted
    gated = stack.gated
    probabilities = association_probabilities(gated, params)
    # a track that gated nothing coasts
    if len(gated):
        x_mix, P_mix = _composite_update(x, P, gated.inside, probabilities, frame)
        updated = gated.inside.any(axis=1)
        gated_tracks = [track for track, u in zip(tracks, updated.tolist()) if u]
        set_estimates(gated_tracks, x_mix[updated], P_mix[updated])

    records = []
    for track, (miss, betas) in zip(tracks, probabilities):
        evidence = 1.0 - miss
        hit = evidence >= params.hit_threshold
        lifecycle_update(track, hit, params)
        # a hit names the argmax beta, lowest detection_id on ties
        best = min(betas, key=lambda k: (-betas[k], k)) if hit and betas else None
        score = evidence if betas else None
        records.append(snapshot_record(frame.t, track, best, score, betas, miss))

    gated_cols = gated.inside.any(axis=0).tolist()
    unassigned = [d for d, g in zip(frame.detections, gated_cols) if not g]
    births = birth_tracks(unassigned, params, birth_rng, id_source=id_source)
    return step_result(frame.t, tracks, records, births)
