"""Joint Probabilistic Data Association tracker, per-track variant.

Each track is updated with a probability-weighted sum over its gated
detections plus a miss hypothesis. Association probabilities are
normalized per track over the gated set with a clutter/miss mass, so an
extra in-gate detection always dilutes the weights of the others. One
detection may contribute weight to several tracks.
"""

from __future__ import annotations

import math
from typing import Iterator, Optional, Sequence

import numpy as np

from .estimation import GateResult, KinematicEstimate, gate, kf_predict
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


def association_probabilities(gated: GateResult, params: TrackerParams) -> tuple[float, dict]:
    """Per-track association probabilities over the gated detections, as
    (miss, betas): betas maps detection_id to its probability and miss
    is the leftover mass on the no-detection hypothesis; they sum to 1.

    Likelihood of detection i is the Gaussian innovation density
    exp(-d2_i / 2) / (2 pi sqrt(det S_i)); the miss/clutter mass is
    C = clutter_density * (1 - p_detect) / p_detect. beta_i is the
    likelihood share of the C-augmented total. An empty gate puts all
    mass on the miss hypothesis.
    """
    if len(gated) == 0:
        return 1.0, {}
    C = params.clutter_density * (1.0 - params.p_detect) / params.p_detect
    S = gated.S
    det_S = S[:, 0, 0] * S[:, 1, 1] - S[:, 0, 1] * S[:, 1, 0]
    # per-pair math.exp and a Python sum, which round differently from
    # their numpy counterparts
    likes = [
        math.exp(-0.5 * d2) / (2.0 * math.pi * math.sqrt(det))
        for d2, det in zip(gated.d2.tolist(), det_S.tolist())
    ]
    denom = C + sum(likes)
    betas = {
        det_id: like / denom for det_id, like in zip(gated.detection_ids, likes)
    }
    return C / denom, betas


def _composite_update(
    tracks: Sequence,
    gates: Sequence[GateResult],
    probabilities: Sequence[tuple[float, dict]],
    frame: DetectionFrame,
) -> None:
    """Replace each track's estimate by the moment-matched mixture of its
    prior (miss) and its per-detection posteriors, weighted by the
    association probabilities; every gate must be non-empty.

    One stacked Kalman update covers all (track, gated detection) pairs.
    The mixture sums run over hypothesis k for all tracks at once, from
    zero and in the order miss first, then detections by id. A track
    with fewer hypotheses than the most crowded one is padded with
    copies of its miss hypothesis at weight zero, whose terms are +-0.0
    and leave every sum's bits as they were.
    """
    counts = np.array([len(gated) for gated in gates])
    n, k_max = len(tracks), 1 + int(counts.max())
    rows = np.repeat(np.arange(n), counts)
    cols = 1 + np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts, counts)
    indices = np.concatenate([gated.indices for gated in gates])
    prior_x = np.stack([track.estimate.x for track in tracks])
    prior_P = np.stack([track.estimate.P for track in tracks])
    post_x, post_P, _, _ = kf_update(
        prior_x[rows], prior_P[rows], frame.positions[indices], frame.covariances[indices]
    )

    means = np.repeat(prior_x[:, None], k_max, axis=1)
    covs = np.repeat(prior_P[:, None], k_max, axis=1)
    weights = np.zeros((n, k_max))
    means[rows, cols] = post_x
    covs[rows, cols] = post_P
    weights[:, 0] = [miss for miss, _ in probabilities]
    weights[rows, cols] = [
        betas[det_id]
        for gated, (_, betas) in zip(gates, probabilities)
        for det_id in gated.detection_ids
    ]
    x = np.zeros((n, 4))
    for k in range(k_max):
        x += weights[:, k, None] * means[:, k]
    P = np.zeros((n, 4, 4))
    for k in range(k_max):
        dm = means[:, k] - x
        P += weights[:, k, None, None] * (covs[:, k] + dm[:, :, None] * dm[:, None, :])
    P = 0.5 * (P + P.swapaxes(1, 2))
    for track, x_i, P_i in zip(tracks, x, P):
        track.estimate = KinematicEstimate(x=x_i, P=P_i)


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
    for track in tracks:
        track.estimate = kf_predict(track.estimate, params.dt_s, params.q)

    gates = [gate(frame, track.estimate, params.gamma) for track in tracks]
    probabilities = [association_probabilities(gated, params) for gated in gates]
    updated = [
        (tr, gated, p) for tr, gated, p in zip(tracks, gates, probabilities) if len(gated) > 0
    ]
    if updated:
        _composite_update(*zip(*updated), frame)

    records = []
    for track, gated, (miss, betas) in zip(tracks, gates, probabilities):
        evidence = 1.0 - miss
        hit = evidence >= params.hit_threshold
        lifecycle_update(track, hit, params)
        # a hit names the argmax beta, lowest detection_id on ties
        best = min(betas, key=lambda k: (-betas[k], k)) if hit and betas else None
        score = evidence if len(gated) > 0 else None
        records.append(snapshot_record(frame.t, track, best, score, betas, miss))

    gated_ids = {det_id for gated in gates for det_id in gated.detection_ids}
    unassigned = [d for d in frame.detections if d.detection_id not in gated_ids]
    births = birth_tracks(unassigned, params, birth_rng, id_source=id_source)
    return step_result(frame.t, tracks, records, births)
