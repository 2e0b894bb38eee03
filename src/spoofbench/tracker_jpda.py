"""Joint Probabilistic Data Association tracker, per-track variant.

Each track is updated with a probability-weighted sum over its gated
detections plus a miss hypothesis. Association probabilities are
normalized per track over the gated set with a clutter/miss mass, so an
extra in-gate detection always dilutes the weights of the others. One
detection may contribute weight to several tracks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .estimation import GateResult, gate, kf_predict, kf_update
from .sensing import DetectionFrame
from .tracking import (
    AssignmentOutcome,
    StepResult,
    TrackerParams,
    TrackStatus,
    birth_tracks,
    lifecycle_update,
)


@dataclass(frozen=True)
class BetaVector:
    """Association probabilities of one track at one step.

    betas maps detection_id to its probability; miss is the leftover
    mass on the no-detection hypothesis. Sums to 1 by construction.
    """

    track_id: int
    miss: float
    betas: dict

    def total(self) -> float:
        return self.miss + sum(self.betas.values())

    def as_json_dict(self) -> dict:
        vector = {"miss": self.miss}
        for det_id in sorted(self.betas):
            vector[str(det_id)] = self.betas[det_id]
        return vector


def association_probabilities(
    track, gated: GateResult, params: TrackerParams
) -> BetaVector:
    """Per-track association probabilities over the gated detections.

    Likelihood of detection i is the Gaussian innovation density
    exp(-d2_i / 2) / (2 pi sqrt(det S_i)); the miss/clutter mass is
    C = clutter_density * (1 - p_detect) / p_detect. beta_i is the
    likelihood share of the C-augmented total. An empty gate puts all
    mass on the miss hypothesis.
    """
    if len(gated) == 0:
        return BetaVector(track_id=track.track_id, miss=1.0, betas={})
    C = params.clutter_density * (1.0 - params.p_detect) / params.p_detect
    likes: list[float] = []
    for d2, S in zip(gated.d2, gated.S):
        det_S = float(S[0, 0] * S[1, 1] - S[0, 1] * S[1, 0])
        likes.append(math.exp(-0.5 * d2) / (2.0 * math.pi * math.sqrt(det_S)))
    denom = C + sum(likes)
    betas = {
        det_id: like / denom for det_id, like in zip(gated.detection_ids, likes)
    }
    return BetaVector(track_id=track.track_id, miss=C / denom, betas=betas)


def _composite_update(track, gated: GateResult, beta: BetaVector, frame: DetectionFrame):
    """Moment-matched mixture of the prior (miss) and the per-detection
    posteriors, weighted by the association probabilities."""
    prior = track.estimate
    means = [prior.x]
    covs = [prior.P]
    weights = [beta.miss]
    for index, det_id in zip(gated.indices, gated.detection_ids):
        det = frame.detections[index]
        posterior, _, _ = kf_update(prior, det.z, det.R)
        means.append(posterior.x)
        covs.append(posterior.P)
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
    return prior


def jpda_step(
    tracks: list,
    frame: DetectionFrame,
    params: TrackerParams,
    birth_rng: Optional[np.random.Generator] = None,
    id_source: Optional[Iterator[int]] = None,
) -> StepResult:
    """One predict-gate-weight-update cycle over a frame.

    The composite update always applies (a mostly-miss step still nudges
    the state by the residual detection mass); the lifecycle hit fires
    iff 1 - beta_miss >= hit_threshold. Detections gated by no track
    spawn tentative tracks.
    """
    if id_source is None:
        id_source = itertools.count(
            max((tr.track_id for tr in tracks), default=-1) + 1
        )
    tracks = sorted(tracks, key=lambda tr: tr.track_id)
    for track in tracks:
        track.estimate = kf_predict(track.estimate, params.dt_s, params.q)

    gated_ids: set[int] = set()
    outcomes: list[AssignmentOutcome] = []
    deletions: list[int] = []
    for track in tracks:
        gated = gate(frame, track.estimate, None, params.gamma, track_id=track.track_id)
        gated_ids.update(gated.detection_ids)
        beta = association_probabilities(track, gated, params)
        if len(gated) > 0:
            _composite_update(track, gated, beta, frame)
        evidence = 1.0 - beta.miss
        hit = evidence >= params.hit_threshold
        lifecycle_update(track, hit, params)
        if beta.betas:
            # argmax beta, lowest detection_id on ties
            best = min(beta.betas, key=lambda k: (-beta.betas[k], k))
            detection_id = int(best) if hit else None
        else:
            detection_id = None
        score = evidence if len(gated) > 0 else None
        outcomes.append(
            AssignmentOutcome(
                track_id=track.track_id,
                detection_id=detection_id,
                score=score,
                weights=dict(beta.betas),
                miss_weight=beta.miss,
                beta=beta.as_json_dict(),
            )
        )
        track.assignment_history.append((frame.t, detection_id, score))
        if track.status is TrackStatus.DELETED:
            deletions.append(track.track_id)

    unassigned = [d for d in frame.detections if d.detection_id not in gated_ids]
    births = birth_tracks(unassigned, params, birth_rng, id_source)
    live = [tr for tr in tracks if tr.status is not TrackStatus.DELETED] + births
    return StepResult(
        t=frame.t, tracks=live, assignments=outcomes, births=births, deletions=deletions
    )
