"""Run-level metrics: drift from truth, identity switches, cluster
purity, spoof inclusion, confusion, recovery and false attribution, and
normalized impact.

All metrics are pure post-processing over snapshot records, ground
truth, and the provenance of the detections the tracks consumed, looked
up by (t, detection_id) in one map built from the spoofed stream
(detection_origins). Track-to-truth correspondence is solved
per timestep as a min-cost one-to-one matching between confirmed track
positions and true platform positions with a hard distance cutoff; the
matcher's index (matched records and their distances) is the one source
every truth-based metric and the plot-data export read. Each statistic
is computed in the walk that already holds its inputs: one pass over the
snapshot rows (score_consumption) scores every consumed weight. A float
total whose value a report holds is added left to right from 0.0, not
by sum(), which compensates from Python 3.12 on, so a report's bytes do
not depend on the Python minor version.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add, attrgetter
from typing import Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .codec import Record, load_record, write_json
from .scenario import GroundTruth
from .sensing import DetectionFrame
from .tracker_gnn import hungarian
from .tracking import SnapshotRecord, TrackStatus

# matching cutoff between a track and a platform, meters
MATCH_CUTOFF_M = 100.0

# drift normalization distance for the impact percentage, meters
D_NORM_M = 500.0

# consecutive in-band steps after the window that count as a recovery
MIN_RECOVERY_STEPS = 5

# read once: each enum `.value` is a Python-level descriptor call
_CONFIRMED = TrackStatus.CONFIRMED.value


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
        r for r in snapshots if r.status == _CONFIRMED and 0 <= r.t < truth.n_steps
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
        # elementwise, never a BLAS dot, whose rounding depends on the kernel
        dx, dy = (xy - truth.positions[pid][ts]).T
        dist[:, j] = np.sqrt(dx * dx + dy * dy)
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
            pairs = hungarian(np.where(block, dist[lo:hi], np.inf), MATCH_CUTOFF_M).items()
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
    """

    per_platform: dict
    mean_m: Optional[float]
    max_m: Optional[float]
    matched_steps: int


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
    )


def detection_origins(frames: Sequence[DetectionFrame]) -> dict:
    """{(t, detection_id): origin_key} over every detection of a stream."""
    return {(d.t, d.detection_id): d.origin_key() for f in frames for d in f.detections}


class PurityPoint(NamedTuple):
    """Track-averaged purity at one step; spoof_majority_fraction is the
    share of contributing tracks whose majority source is a spoof.
    report.json writes it as the list [t, purity, spoof_majority_fraction]."""

    t: int
    purity: float
    spoof_majority_fraction: float


class Consumption(NamedTuple):
    """What the tracks consumed, scored by where it came from."""

    purity_timeline: list
    spoof_inclusion_rate: float
    confusion: dict
    false_attribution: float
    spoofed_platforms: frozenset


def score_consumption(
    snapshots: Sequence[SnapshotRecord],
    correspondence: TruthCorrespondence,
    origins: dict,
    injection_window: tuple[int, int],
) -> Consumption:
    """One walk over the rows that consumed weights, each detection's
    origin looked up once in origins, detection_origins of the tracked
    stream.

    Purity per step = (weight of the majority origin) / (total weight),
    averaged over the rows that consumed weight; steps where none did are
    absent. Inclusion is the share of those rows whose spoof weight is
    more than half their total. Confusion row r holds the fraction of the
    weight consumed by platform r's matched tracks from each source
    (platform:<id>, clutter, one spoof bucket); rows sum to 1. False
    attribution is the share of clean weight that matched tracks consumed
    from another platform. spoofed_platforms: those whose matched track
    consumed spoof weight inside the window.

    A matched row whose weights sum to 0 still adds its 0.0 entries to
    confusion and attribution; purity and inclusion skip it. Totals add
    in row order: a tracker run's confirmed rows are in (t, track_id)
    order, the order of correspondence.records, so each platform's
    weights add step by step.
    """
    t_start, t_end = injection_window
    steps: dict = {}  # t -> ([purity per row], [spoof-majority flag per row])
    updates = spoof_dominated = 0
    weight_rows: dict = {}
    clean_weight = misattributed = 0.0
    spoofed_platforms = set()
    for record in snapshots:
        if not record.weights:
            continue
        t = record.t
        pid = correspondence.platform_of(t, record.track_id)
        row = None if pid is None else weight_rows.setdefault(pid, {})
        sums: dict = {}
        total = spoof = 0.0
        for det_id, weight in record.weights.items():
            origin = origins[t, det_id]
            sums[origin] = sums.get(origin, 0.0) + weight
            total += weight
            is_spoof = origin.startswith("spoof")
            if is_spoof:
                spoof += weight
            if row is not None:
                source = "spoof" if is_spoof else origin
                row[source] = row.get(source, 0.0) + weight
                if origin.startswith("platform:"):
                    clean_weight += weight
                    if int(origin.split(":", 1)[1]) != pid:
                        misattributed += weight
        if row is not None and spoof > 0.0 and t_start <= t <= t_end:
            spoofed_platforms.add(pid)
        if total <= 0.0:
            continue
        majority = max(sorted(sums), key=lambda k: sums[k])
        purities, spoof_major = steps.setdefault(t, ([], []))
        purities.append(sums[majority] / total)
        spoof_major.append(majority.startswith("spoof"))
        updates += 1
        spoof_dominated += spoof > 0.5 * total
    confusion: dict = {}
    for pid, row in weight_rows.items():
        row_total = reduce(add, row.values(), 0.0)
        if row_total > 0.0:
            confusion[pid] = {src: w / row_total for src, w in sorted(row.items())}
    return Consumption(
        [PurityPoint(t, float(np.mean(p)), sum(f) / len(p)) for t, (p, f) in sorted(steps.items())],
        spoof_dominated / updates if updates else 0.0,
        confusion,
        misattributed / clean_weight if clean_weight > 0.0 else 0.0,
        frozenset(spoofed_platforms),
    )


def recovery_rate(
    correspondence: TruthCorrespondence, truth: GroundTruth, spoofed_platforms: frozenset,
    noise_sigma_m: float, injection_window: tuple[int, int],
) -> float:
    """Fraction of spoofed_platforms (see score_consumption) whose matched
    distance returns within eps = 3 * noise_sigma_m for at least
    MIN_RECOVERY_STEPS consecutive steps after the window; vacuously 1
    when there are none.
    """
    eps = 3.0 * noise_sigma_m
    recovered = 0
    for pid in spoofed_platforms:
        by_t = correspondence.distances[pid]
        run_length = 0
        for t in range(injection_window[1] + 1, truth.n_steps):
            run_length = run_length + 1 if by_t.get(t, np.inf) <= eps else 0
            if run_length >= MIN_RECOVERY_STEPS:
                recovered += 1
                break
    return recovered / len(spoofed_platforms) if spoofed_platforms else 1.0


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
    snapshots: Sequence[SnapshotRecord],
    truth: GroundTruth,
    spoofed_run,
    tracker_name: str,
    spoof_name: str,
    seed: int,
    config_digest: str,
    noise_sigma_m: float,
) -> RunReport:
    """Assemble the full metric bundle for one finished run from its
    snapshot rows."""
    correspondence = match_tracks_to_truth(snapshots, truth)
    origins = detection_origins(spoofed_run.spoofed_frames)
    drift = drift_from_truth(correspondence, truth)
    window = spoofed_run.config.injection_window
    consumed = score_consumption(snapshots, correspondence, origins, window)
    recovery = recovery_rate(
        correspondence, truth, consumed.spoofed_platforms, noise_sigma_m, window
    )
    switches = dict.fromkeys(correspondence.distances, 0)
    for _, pid, _, _ in correspondence.switches():
        switches[pid] += 1
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
        switch_count=sum(switches.values()),
        per_platform_switches=switches,
        confusion=consumed.confusion,
        purity_timeline=consumed.purity_timeline,
        spoof_inclusion_rate=consumed.spoof_inclusion_rate,
        recovery_rate=recovery,
        false_association_ratio=consumed.false_attribution,
    )


def write_report_json(path, report: RunReport) -> None:
    write_json(path, report.as_dict())


def read_report_json(path) -> RunReport:
    """Strict read: a malformed report is a ConfigError naming the file
    and the JSON path of the bad value."""
    return load_record(RunReport, path)
