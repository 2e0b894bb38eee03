import itertools

import numpy as np
import pytest

from spoofbench.metrics import (
    MATCH_CUTOFF_M,
    PlatformDrift,
    PurityPoint,
    RunReport,
    assignment_divergence,
    cluster_purity,
    drift_from_truth,
    match_tracks_to_truth,
    normalized_impact,
    read_report_json,
    spoof_stats,
    write_report_json,
)
from spoofbench.scenario import GroundTruth
from spoofbench.tracking import SnapshotRecord


def truth_of(platforms, T=10, dt=1.0):
    """Stationary platforms: pid -> (x, y), or pid -> (T, 2) paths."""
    positions = {}
    for pid, p in platforms.items():
        arr = np.asarray(p, dtype=float)
        if arr.ndim == 1:
            arr = np.tile(arr, (T, 1))
        positions[pid] = arr
    return GroundTruth(
        times_s=np.arange(T) * dt,
        dt_s=dt,
        platform_ids=tuple(sorted(platforms)),
        positions=positions,
        velocities={pid: np.zeros_like(a) for pid, a in positions.items()},
    )


def snap(t, track_id, x, y, status="confirmed", weights=None, origins=None):
    return SnapshotRecord(
        t=t,
        track_id=track_id,
        status=status,
        x=float(x),
        y=float(y),
        vx=0.0,
        vy=0.0,
        detection_id=None,
        score=None,
        weights=weights or {},
        origins=origins or {},
    )


def test_match_exact_position():
    truth = truth_of({7: (10.0, 20.0)}, T=3)
    snaps = [snap(t, 4, 10.0, 20.0) for t in range(3)]
    corr = match_tracks_to_truth(snaps, truth)
    assert corr.platform_of(1, 4) == 7
    assert corr.track_of(1, 7) == 4


def test_match_beyond_cutoff_stays_unmatched():
    truth = truth_of({0: (0.0, 0.0)}, T=2)
    snaps = [snap(0, 1, 150.0, 0.0)]
    corr = match_tracks_to_truth(snaps, truth)
    assert corr.platform_of(0, 1) is None


def test_match_tentative_ignored():
    truth = truth_of({0: (0.0, 0.0)}, T=2)
    snaps = [snap(0, 1, 0.0, 0.0, status="tentative")]
    corr = match_tracks_to_truth(snaps, truth)
    assert corr.by_step == {}


def test_match_crossed_pairs_minimize_total_distance():
    # tracks sit between two platforms; the optimal pairing is not the
    # greedy nearest-first one
    truth = truth_of({0: (0.0, 0.0), 1: (10.0, 0.0)}, T=1)
    snaps = [snap(0, 100, 4.0, 0.0), snap(0, 101, 6.0, 0.0)]
    corr = match_tracks_to_truth(snaps, truth)
    # 4+4 beats 6+6
    assert corr.by_step[0] == {100: 0, 101: 1}


def test_match_agrees_with_brute_force():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n_p = int(rng.integers(1, 4))
        n_t = int(rng.integers(1, 4))
        platforms = {pid: rng.uniform(0, 60, 2) for pid in range(n_p)}
        truth = truth_of(platforms, T=1)
        snaps = [snap(0, 10 + i, *rng.uniform(0, 60, 2)) for i in range(n_t)]
        corr = match_tracks_to_truth(snaps, truth)

        # brute force over all injective partial assignments
        def cost_of(mapping):
            total = 0.0
            for i, j in enumerate(mapping):
                d = float(
                    np.linalg.norm(
                        np.array([snaps[i].x, snaps[i].y]) - platforms[j]
                    )
                ) if j is not None else MATCH_CUTOFF_M
                if j is not None and d > MATCH_CUTOFF_M:
                    return np.inf
                total += d
            return total

        best = np.inf
        options = [None] + list(range(n_p))
        for mapping in itertools.product(options, repeat=n_t):
            taken = [j for j in mapping if j is not None]
            if len(taken) != len(set(taken)):
                continue
            best = min(best, cost_of(mapping))
        got_mapping = corr.by_step.get(0, {})
        got = sum(
            float(np.linalg.norm(np.array([s.x, s.y]) - platforms[got_mapping[s.track_id]]))
            for s in snaps
            if s.track_id in got_mapping
        ) + MATCH_CUTOFF_M * (n_t - len(got_mapping))
        assert got == pytest.approx(best, abs=1e-9)
        for track_id in got_mapping:
            assert corr.track_of(0, corr.platform_of(0, track_id)) == track_id


def test_drift_zero_when_on_truth():
    truth = truth_of({0: (5.0, 5.0)}, T=4)
    snaps = [snap(t, 1, 5.0, 5.0) for t in range(4)]
    corr = match_tracks_to_truth(snaps, truth)
    drift = drift_from_truth(corr, truth)
    assert drift.mean_m == 0.0
    assert drift.max_m == 0.0
    assert drift.matched_steps == 4
    assert not drift.empty


def test_drift_constant_offset():
    truth = truth_of({0: (0.0, 0.0)}, T=5)
    snaps = [snap(t, 1, 3.0, 4.0) for t in range(5)]
    corr = match_tracks_to_truth(snaps, truth)
    drift = drift_from_truth(corr, truth)
    assert drift.mean_m == pytest.approx(5.0)
    assert drift.max_m == pytest.approx(5.0)
    assert drift.per_platform[0].gap_steps == 0


def test_drift_mixed_offsets():
    truth = truth_of({0: (0.0, 0.0)}, T=3)
    snaps = [snap(0, 1, 0.0, 0.0), snap(1, 1, 0.0, 0.0), snap(2, 1, 10.0, 0.0)]
    corr = match_tracks_to_truth(snaps, truth)
    drift = drift_from_truth(corr, truth)
    assert drift.mean_m == pytest.approx(10.0 / 3.0)
    assert drift.max_m == pytest.approx(10.0)


def test_drift_translation_invariance():
    rng = np.random.default_rng(3)
    offsets = rng.uniform(-5, 5, (6, 2))
    shift = np.array([1000.0, -400.0])
    base = truth_of({0: (0.0, 0.0)}, T=6)
    shifted = truth_of({0: shift}, T=6)
    snaps_a = [snap(t, 1, *offsets[t]) for t in range(6)]
    snaps_b = [snap(t, 1, *(shift + offsets[t])) for t in range(6)]
    d_a = drift_from_truth(match_tracks_to_truth(snaps_a, base), base)
    d_b = drift_from_truth(match_tracks_to_truth(snaps_b, shifted), shifted)
    assert d_a.mean_m == pytest.approx(d_b.mean_m, abs=1e-9)
    assert d_a.max_m == pytest.approx(d_b.max_m, abs=1e-9)


def test_drift_empty_flag():
    truth = truth_of({0: (0.0, 0.0)}, T=2)
    drift = drift_from_truth(match_tracks_to_truth([], truth), truth)
    assert drift.empty
    assert drift.mean_m is None
    assert drift.max_m is None


def test_switches_stable_zero():
    truth = truth_of({0: (0.0, 0.0)}, T=4)
    snaps = [snap(t, 9, 0.5, 0.0) for t in range(4)]
    corr = match_tracks_to_truth(snaps, truth)
    div = assignment_divergence(corr)
    assert div.switch_count == 0


def test_switches_counts_identity_change():
    # platform followed by track 1 for two steps, then track 2
    truth = truth_of({0: (0.0, 0.0)}, T=4)
    snaps = [
        snap(0, 1, 0.0, 0.0),
        snap(1, 1, 0.0, 0.0),
        snap(2, 2, 0.0, 0.0),
        snap(3, 2, 0.0, 0.0),
    ]
    corr = match_tracks_to_truth(snaps, truth)
    assert list(corr.switches()) == [(2, 0, 1, 2)]
    div = assignment_divergence(corr)
    assert div.switch_count == 1
    assert div.per_platform_switches[0] == 1


def test_confusion_fractions():
    truth = truth_of({0: (0.0, 0.0)}, T=10)
    snaps = []
    for t in range(10):
        origin = "spoof:ghost" if t < 2 else "platform:0"
        snaps.append(
            snap(t, 1, 0.0, 0.0, weights={t: 1.0}, origins={t: origin})
        )
    corr = match_tracks_to_truth(snaps, truth)
    div = assignment_divergence(corr)
    row = div.confusion[0]
    assert row["platform:0"] == pytest.approx(0.8)
    assert row["spoof"] == pytest.approx(0.2)
    assert sum(row.values()) == pytest.approx(1.0, abs=1e-9)


def test_confusion_rows_sum_to_one_random():
    rng = np.random.default_rng(21)
    truth = truth_of({0: (0.0, 0.0), 1: (50.0, 0.0)}, T=20)
    sources = ["platform:0", "platform:1", "clutter", "spoof:mirror"]
    snaps = []
    for t in range(20):
        for tid, px in ((1, 0.0), (2, 50.0)):
            k = int(rng.integers(1, 4))
            w = rng.dirichlet(np.ones(k))
            weights = {i: float(w[i]) for i in range(k)}
            origins = {i: sources[int(rng.integers(len(sources)))] for i in range(k)}
            snaps.append(snap(t, tid, px, 0.0, weights=weights, origins=origins))
    corr = match_tracks_to_truth(snaps, truth)
    div = assignment_divergence(corr)
    assert div.confusion
    for row in div.confusion.values():
        assert sum(row.values()) == pytest.approx(1.0, abs=1e-9)


def test_purity_single_origin_is_one():
    snaps = [snap(0, 1, 0.0, 0.0, weights={5: 1.0}, origins={5: "platform:0"})]
    [point] = cluster_purity(snaps)
    assert point.purity == 1.0
    assert point.spoof_majority_fraction == 0.0


def test_purity_soft_split():
    snaps = [
        snap(
            0,
            1,
            0.0,
            0.0,
            weights={1: 0.7, 2: 0.3},
            origins={1: "platform:0", 2: "spoof:ghost"},
        )
    ]
    [point] = cluster_purity(snaps)
    assert point.purity == pytest.approx(0.7)
    assert point.spoof_majority_fraction == 0.0


def test_purity_spoof_majority_flagged():
    # a track living entirely on ghosts is pure, just pure spoof
    snaps = [snap(0, 1, 0.0, 0.0, weights={1: 1.0}, origins={1: "spoof:ghost"})]
    [point] = cluster_purity(snaps)
    assert point.purity == 1.0
    assert point.spoof_majority_fraction == 1.0


def test_purity_skips_consumptionless_steps():
    snaps = [snap(0, 1, 0.0, 0.0), snap(1, 1, 0.0, 0.0, weights={1: 1.0}, origins={1: "clutter"})]
    timeline = cluster_purity(snaps)
    assert [p.t for p in timeline] == [1]


def test_spoof_stats_clean_run():
    truth = truth_of({0: (0.0, 0.0)}, T=10)
    snaps = [
        snap(t, 1, 0.0, 0.0, weights={t: 1.0}, origins={t: "platform:0"})
        for t in range(10)
    ]
    corr = match_tracks_to_truth(snaps, truth)
    stats = spoof_stats(
        snaps, corr, truth, noise_sigma_m=5.0, injection_window=(2, 5)
    )
    assert stats.inclusion_rate == 0.0
    assert stats.recovery_rate == 1.0
    assert stats.false_attribution == 0.0


def test_spoof_inclusion_counts_majority_updates():
    truth = truth_of({0: (0.0, 0.0)}, T=10)
    snaps = []
    for t in range(10):
        origin = "spoof:drift" if t in (3, 4) else "platform:0"
        snaps.append(snap(t, 1, 0.0, 0.0, weights={t: 1.0}, origins={t: origin}))
    corr = match_tracks_to_truth(snaps, truth)
    stats = spoof_stats(
        snaps, corr, truth, noise_sigma_m=5.0, injection_window=(3, 4)
    )
    assert stats.inclusion_rate == pytest.approx(0.2)


def test_recovery_requires_sustained_return():
    truth = truth_of({0: (0.0, 0.0)}, T=30)
    eps = 15.0  # 3 sigma at sigma=5

    def run_with_tail(tail_offset):
        snaps = []
        for t in range(30):
            if 5 <= t <= 9:
                origin, x = "spoof:drift", 30.0
            else:
                origin, x = "platform:0", tail_offset
            snaps.append(
                snap(t, 1, x, 0.0, weights={t: 1.0}, origins={t: origin})
            )
        corr = match_tracks_to_truth(snaps, truth)
        return spoof_stats(
            snaps, corr, truth, noise_sigma_m=5.0, injection_window=(5, 9)
        )

    # returns to truth after the window: recovered
    assert run_with_tail(0.0).recovery_rate == 1.0
    # stays outside 3 sigma forever: not recovered
    assert run_with_tail(eps + 5.0).recovery_rate == 0.0


def test_false_attribution_counts_cross_platform_weight():
    truth = truth_of({0: (0.0, 0.0), 1: (50.0, 0.0)}, T=4)
    snaps = []
    for t in range(4):
        # track 1 follows platform 0 but consumes one detection from
        # platform 1 at t=0
        origin = "platform:1" if t == 0 else "platform:0"
        snaps.append(snap(t, 1, 0.0, 0.0, weights={t: 1.0}, origins={t: origin}))
        snaps.append(
            snap(t, 2, 50.0, 0.0, weights={100 + t: 1.0}, origins={100 + t: "platform:1"})
        )
    corr = match_tracks_to_truth(snaps, truth)
    stats = spoof_stats(
        snaps, corr, truth, noise_sigma_m=5.0, injection_window=(0, 1)
    )
    assert stats.false_attribution == pytest.approx(1.0 / 8.0)


def test_normalized_impact_values():
    assert normalized_impact(77.10) == pytest.approx(15.42)
    assert normalized_impact(0.0) == 0.0
    assert normalized_impact(500.0) == pytest.approx(100.0)
    assert normalized_impact(75.0, d_norm_m=300.0) == pytest.approx(25.0)
    with pytest.raises(ValueError):
        normalized_impact(-1.0)


def test_run_report_json_round_trip(tmp_path):
    report = RunReport(
        tracker="gnn",
        spoof_type="drift",
        seed=3,
        config_digest="abc123",
        mean_drift_m=12.5,
        max_drift_m=40.0,
        normalized_impact_pct=2.5,
        matched_steps=80,
        per_platform_drift={
            0: PlatformDrift(mean_m=12.5, max_m=40.0, matched_steps=80, gap_steps=20)
        },
        switch_count=1,
        per_platform_switches={0: 1},
        confusion={0: {"platform:0": 0.9, "spoof": 0.1}},
        purity_timeline=[PurityPoint(t=0, purity=1.0, spoof_majority_fraction=0.0)],
        spoof_inclusion_rate=0.05,
        recovery_rate=1.0,
        false_association_ratio=0.0,
    )
    path = tmp_path / "report.json"
    write_report_json(path, report)
    assert read_report_json(path) == report


REPORT_TEXT = """{
  "tracker": "jpda",
  "spoof_type": "ghost",
  "seed": 7,
  "config_digest": "d1",
  "mean_drift_m": 3.5,
  "max_drift_m": 9.25,
  "normalized_impact_pct": 0.7,
  "matched_steps": 12,
  "per_platform_drift": {
    "2": {
      "mean_m": 3.5,
      "max_m": 9.25,
      "matched_steps": 12,
      "gap_steps": 8
    },
    "10": {
      "mean_m": null,
      "max_m": null,
      "matched_steps": 0,
      "gap_steps": 20
    }
  },
  "switch_count": 1,
  "per_platform_switches": {
    "2": 1,
    "10": 0
  },
  "confusion": {
    "2": {
      "platform:2": 0.75,
      "spoof": 0.25
    }
  },
  "purity_timeline": [
    [
      4,
      0.5,
      1.0
    ]
  ],
  "spoof_inclusion_rate": 0.125,
  "recovery_rate": 1.0,
  "false_association_ratio": 0.0
}
"""


def test_report_json_text_is_pinned(tmp_path):
    # platform ids 10 and 2: keys are written in numeric, not string, order
    report = RunReport(
        tracker="jpda",
        spoof_type="ghost",
        seed=7,
        config_digest="d1",
        mean_drift_m=3.5,
        max_drift_m=9.25,
        normalized_impact_pct=0.7,
        matched_steps=12,
        per_platform_drift={
            10: PlatformDrift(mean_m=None, max_m=None, matched_steps=0, gap_steps=20),
            2: PlatformDrift(mean_m=3.5, max_m=9.25, matched_steps=12, gap_steps=8),
        },
        switch_count=1,
        per_platform_switches={10: 0, 2: 1},
        confusion={2: {"platform:2": 0.75, "spoof": 0.25}},
        purity_timeline=[PurityPoint(t=4, purity=0.5, spoof_majority_fraction=1.0)],
        spoof_inclusion_rate=0.125,
        recovery_rate=1.0,
        false_association_ratio=0.0,
    )
    path = tmp_path / "report.json"
    write_report_json(path, report)
    assert path.read_text(encoding="utf-8") == REPORT_TEXT
    assert read_report_json(path) == report
