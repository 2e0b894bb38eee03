"""Run-level metrics: drift from truth, assignment divergence, cluster
purity, spoof statistics, and normalized impact.

All metrics are pure post-processing over snapshot records, ground
truth, and provenance labels. Track-to-truth correspondence is solved
per timestep as a min-cost one-to-one matching between confirmed track
positions and true platform positions with a hard distance cutoff; the
matcher's index (matched records and their distances) is the one source
every truth-based metric and the plot-data export read.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .codec import Record, load_record, write_json
from .scenario import GroundTruth
from .tracker_gnn import CostMatrix, hungarian
from .tracking import SnapshotRecord, TrackStatus

# matching cutoff between a track and a platform, meters
MATCH_CUTOFF_M = 100.0

# drift normalization distance for the impact percentage, meters
D_NORM_M = 500.0

# consecutive in-band steps after the window that count as a recovery
MIN_RECOVERY_STEPS = 5


@dataclass(frozen=True)
class TruthCorrespondence:
    """The per-step one-to-one mapping confirmed track -> platform.

    by_step: t -> {track_id: platform_id}, track ids ascending.
    records: (t, platform_id) -> matched SnapshotRecord, in (t, track_id)
    order. distances: platform_id -> {t: matched distance in meters},
    steps ascending, for platforms matched at least once.
    """

    by_step: dict
    records: dict
    distances: dict

    def platform_of(self, t: int, track_id: int) -> Optional[int]:
        return self.by_step.get(t, {}).get(track_id)

    def track_of(self, t: int, platform_id: int) -> Optional[int]:
        record = self.records.get((t, platform_id))
        return None if record is None else record.track_id

    def switches(self) -> Iterator[tuple]:
        """(t, platform_id, previous track_id, new track_id) wherever a
        platform's matched track differs from its previous matched step's
        (coverage gaps neither count nor reset), in step order."""
        last: dict = {}
        for (t, pid), record in self.records.items():
            previous = last.get(pid)
            if previous is not None and previous != record.track_id:
                yield t, pid, previous, record.track_id
            last[pid] = record.track_id


def match_tracks_to_truth(
    snapshots: Sequence[SnapshotRecord],
    truth: GroundTruth,
) -> TruthCorrespondence:
    """Assign confirmed tracks to platforms per timestep.

    Cost is Euclidean distance; only pairs strictly inside MATCH_CUTOFF_M
    are candidates, so a track exactly at the cutoff stays unmatched.
    The assignment is solved with the same machinery as the tracker,
    with the cutoff as the no-assignment cost. A matched pair keeps its
    cost as the track's distance from truth.

    All distances of a run come from one array. A step in which no track
    and no platform has two candidates has its candidate pairs as its
    unique optimum and skips the solver.
    """
    by_step: dict = {}
    records: dict = {}
    distances: dict = {}
    platform_ids = tuple(truth.platform_ids)
    confirmed = [
        r for r in snapshots if r.status == TrackStatus.CONFIRMED.value and r.t < truth.n_steps
    ]
    if not confirmed or not platform_ids:
        return TruthCorrespondence(by_step=by_step, records=records, distances=distances)
    # (t, track_id) order by two stable sorts, which build no key tuples
    confirmed.sort(key=attrgetter("track_id"))
    confirmed.sort(key=attrgetter("t"))
    ts = np.array([r.t for r in confirmed])
    xy = np.array([[r.x for r in confirmed], [r.y for r in confirmed]]).T
    dist = np.empty((len(confirmed), len(platform_ids)))
    for j, pid in enumerate(platform_ids):
        d = xy - truth.positions[pid][ts]
        # sqrt of a stacked dot product rounds exactly as np.linalg.norm
        # does per pair; (d * d).sum(-1) or np.hypot would move some
        # samples by 1 ulp
        dist[:, j] = np.sqrt(d[:, None, :] @ d[:, :, None])[:, 0, 0]
    candidate = dist < MATCH_CUTOFF_M
    steps, starts = np.unique(ts, return_index=True)
    uncontested = (
        (np.maximum.reduceat(candidate.sum(axis=1), starts) <= 1)
        & (np.add.reduceat(candidate, starts, axis=0, dtype=np.intp).max(axis=1) <= 1)
    )
    bounds = zip(steps.tolist(), starts.tolist(), [*starts[1:].tolist(), len(ts)])
    for (t, lo, hi), easy in zip(bounds, uncontested.tolist()):
        block = candidate[lo:hi]
        if easy:
            pairs = zip(*np.nonzero(block))
        else:
            matrix = CostMatrix(
                costs=np.where(block, dist[lo:hi], np.inf),
                track_ids=tuple(range(hi - lo)),
                detection_ids=tuple(range(len(platform_ids))),
                unassigned_cost=MATCH_CUTOFF_M,
            )
            pairs = sorted(hungarian(matrix).items())
        matched = {}
        for i, j in pairs:
            record, pid = confirmed[lo + i], platform_ids[j]
            matched[record.track_id] = pid
            records[(t, pid)] = record
            distances.setdefault(pid, {})[t] = float(dist[lo + i, j])
        if matched:
            by_step[t] = matched
    return TruthCorrespondence(by_step=by_step, records=records, distances=distances)


@dataclass(frozen=True)
class PlatformDrift(Record):
    mean_m: Optional[float]
    max_m: Optional[float]
    matched_steps: int
    gap_steps: int


@dataclass(frozen=True)
class DriftReport:
    """Euclidean error of matched tracks against their platforms.

    Overall mean/max pool every matched (platform, step) sample;
    unmatched platform-steps are reported as coverage gaps, not errors.
    The empty flag marks runs with no matched samples at all.
    """

    per_platform: dict
    mean_m: Optional[float]
    max_m: Optional[float]
    matched_steps: int
    empty: bool


def drift_from_truth(correspondence: TruthCorrespondence, truth: GroundTruth) -> DriftReport:
    per_platform: dict = {}
    pooled: list[float] = []
    T = truth.n_steps
    for pid in truth.platform_ids:
        samples = list(correspondence.distances.get(pid, {}).values())
        pooled.extend(samples)
        per_platform[pid] = PlatformDrift(
            mean_m=float(np.mean(samples)) if samples else None,
            max_m=float(np.max(samples)) if samples else None,
            matched_steps=len(samples),
            gap_steps=T - len(samples),
        )
    return DriftReport(
        per_platform=per_platform,
        mean_m=float(np.mean(pooled)) if pooled else None,
        max_m=float(np.max(pooled)) if pooled else None,
        matched_steps=len(pooled),
        empty=not pooled,
    )


def _collapse_origin(origin: str) -> str:
    # confusion buckets: per-platform sources, clutter, and one spoof
    # bucket regardless of spoof type
    return "spoof" if origin.startswith("spoof") else origin


def _spoof_weight(record: SnapshotRecord) -> float:
    return sum(w for d, w in record.weights.items() if record.origins[d].startswith("spoof"))


@dataclass(frozen=True)
class DivergenceReport:
    switch_count: int
    per_platform_switches: dict
    confusion: dict


def assignment_divergence(correspondence: TruthCorrespondence) -> DivergenceReport:
    """Identity switches and detection-origin confusion.

    A switch is a change of matched track id between consecutive matched
    steps of one platform (coverage gaps neither count nor reset); every
    platform matched at least once has a switch count.
    Confusion row r holds the fraction of detection weight, consumed by
    tracks matched to platform r, that originated from each source;
    rows sum to 1.
    """
    per_platform = dict.fromkeys(correspondence.distances, 0)
    for _, pid, _, _ in correspondence.switches():
        per_platform[pid] += 1
    weight_rows: dict = {}
    for (_, pid), record in correspondence.records.items():
        if not record.weights:
            continue
        row = weight_rows.setdefault(pid, {})
        for det_id, weight in record.weights.items():
            source = _collapse_origin(record.origins[det_id])
            row[source] = row.get(source, 0.0) + weight
    confusion: dict = {}
    for pid, row in weight_rows.items():
        total = sum(row.values())
        if total > 0.0:
            confusion[pid] = {src: w / total for src, w in sorted(row.items())}
    return DivergenceReport(
        switch_count=int(sum(per_platform.values())),
        per_platform_switches=per_platform,
        confusion=confusion,
    )


class PurityPoint(NamedTuple):
    """Track-averaged purity at one step; spoof_majority_fraction is the
    share of contributing tracks whose majority source is a spoof.
    report.json writes it as the list [t, purity, spoof_majority_fraction]."""

    t: int
    purity: float
    spoof_majority_fraction: float


def cluster_purity(snapshots: Sequence[SnapshotRecord]) -> list[PurityPoint]:
    """Per step: purity = (weight of the majority origin source) /
    (total consumed weight), averaged over tracks that consumed weight.
    Steps where no track consumed anything are absent from the timeline.
    """
    steps: dict = {}  # t -> ([purity per track], [spoof-majority flag per track])
    for record in snapshots:
        total = sum(record.weights.values())
        if total <= 0.0:
            continue
        sums: dict = {}
        for det_id, weight in record.weights.items():
            origin = record.origins[det_id]
            sums[origin] = sums.get(origin, 0.0) + weight
        majority = max(sorted(sums), key=lambda k: sums[k])
        purities, spoof_major = steps.setdefault(record.t, ([], []))
        purities.append(sums[majority] / total)
        spoof_major.append(majority.startswith("spoof"))
    return [
        PurityPoint(
            t=t,
            purity=float(np.mean(purities)),
            spoof_majority_fraction=sum(spoof_major) / len(purities),
        )
        for t, (purities, spoof_major) in sorted(steps.items())
    ]


@dataclass(frozen=True)
class SpoofStats:
    inclusion_rate: float
    recovery_rate: float
    false_attribution: float


def spoof_stats(
    snapshots: Sequence[SnapshotRecord],
    correspondence: TruthCorrespondence,
    truth: GroundTruth,
    noise_sigma_m: float,
    injection_window: tuple[int, int],
) -> SpoofStats:
    """Spoof inclusion, post-window recovery, and false attribution.

    inclusion: fraction of all track updates (every step, every track)
    whose consumed weight is majority spoof-labeled. recovery: fraction
    of spoof-affected platforms (their matched track consumed spoof
    weight inside the window) whose matched distance returns within
    eps = 3 * noise_sigma_m for at least MIN_RECOVERY_STEPS consecutive
    steps after the window; vacuously 1 when nothing was affected.
    false_attribution: weight share of clean detections consumed by
    tracks matched to a different platform.
    """
    eps = 3.0 * noise_sigma_m
    t_start, t_end = injection_window

    updates = 0
    spoof_dominated = 0
    for record in snapshots:
        total = sum(record.weights.values())
        if total <= 0.0:
            continue
        updates += 1
        if _spoof_weight(record) > 0.5 * total:
            spoof_dominated += 1
    inclusion = spoof_dominated / updates if updates else 0.0

    affected = {
        pid
        for (t, pid), record in correspondence.records.items()
        if t_start <= t <= t_end and _spoof_weight(record) > 0.0
    }
    recovered = 0
    for pid in affected:
        distances = correspondence.distances[pid]
        run_length = 0
        for t in range(t_end + 1, truth.n_steps):
            in_band = distances.get(t, np.inf) <= eps
            run_length = run_length + 1 if in_band else 0
            if run_length >= MIN_RECOVERY_STEPS:
                recovered += 1
                break
    recovery = recovered / len(affected) if affected else 1.0

    clean_weight = 0.0
    misattributed = 0.0
    for (_, pid), record in correspondence.records.items():
        for det_id, weight in record.weights.items():
            origin = record.origins[det_id]
            if not origin.startswith("platform:"):
                continue
            clean_weight += weight
            if int(origin.split(":", 1)[1]) != pid:
                misattributed += weight
    false_attribution = misattributed / clean_weight if clean_weight > 0.0 else 0.0

    return SpoofStats(
        inclusion_rate=inclusion,
        recovery_rate=recovery,
        false_attribution=false_attribution,
    )


def normalized_impact(mean_drift_m: float) -> float:
    """Mean drift as a percentage of D_NORM_M."""
    if mean_drift_m < 0.0:
        raise ValueError("mean drift must be non-negative")
    return 100.0 * mean_drift_m / D_NORM_M


@dataclass
class RunReport(Record):
    """Metric bundle of one (tracker, spoof, seed) run; report.json is
    its as_dict(), int keys written as decimal strings."""

    tracker: str
    spoof_type: str
    seed: int
    config_digest: str
    mean_drift_m: Optional[float]
    max_drift_m: Optional[float]
    normalized_impact_pct: Optional[float]
    matched_steps: int
    per_platform_drift: dict[int, PlatformDrift]
    switch_count: int
    per_platform_switches: dict[int, int]
    confusion: dict[int, dict[str, float]]
    purity_timeline: list[PurityPoint]
    spoof_inclusion_rate: float
    recovery_rate: float
    false_association_ratio: float


def compute_run_report(
    run,
    truth: GroundTruth,
    spoofed_run,
    tracker_name: str,
    spoof_name: str,
    seed: int,
    config_digest: str,
    noise_sigma_m: float,
) -> RunReport:
    """Assemble the full metric bundle for one finished run."""
    correspondence = match_tracks_to_truth(run.snapshots, truth)
    drift = drift_from_truth(correspondence, truth)
    divergence = assignment_divergence(correspondence)
    purity = cluster_purity(run.snapshots)
    stats = spoof_stats(
        run.snapshots,
        correspondence,
        truth,
        noise_sigma_m=noise_sigma_m,
        injection_window=spoofed_run.config.injection_window,
    )
    impact = normalized_impact(drift.mean_m) if drift.mean_m is not None else None
    return RunReport(
        tracker=tracker_name,
        spoof_type=spoof_name,
        seed=seed,
        config_digest=config_digest,
        mean_drift_m=drift.mean_m,
        max_drift_m=drift.max_m,
        normalized_impact_pct=impact,
        matched_steps=drift.matched_steps,
        per_platform_drift=drift.per_platform,
        switch_count=divergence.switch_count,
        per_platform_switches=divergence.per_platform_switches,
        confusion=divergence.confusion,
        purity_timeline=purity,
        spoof_inclusion_rate=stats.inclusion_rate,
        recovery_rate=stats.recovery_rate,
        false_association_ratio=stats.false_attribution,
    )


def write_report_json(path, report: RunReport) -> None:
    write_json(path, report.as_dict())


def read_report_json(path) -> RunReport:
    """Strict read: a malformed report is a ConfigError naming the file
    and the JSON path of the bad value."""
    return load_record(RunReport, path)
