import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest

from _oracles import min_cost_by_enumeration
from spoofbench.metrics import (
    D_NORM_M,
    MATCH_CUTOFF_M,
    PlatformDrift,
    PurityPoint,
    RunReport,
    TruthCorrespondence,
    compute_run_report,
    detection_origins,
    drift_from_truth,
    match_tracks_to_truth,
    normalized_impact,
    read_report_json,
    recovery_rate,
    score_consumption,
    write_report_json,
)
from spoofbench.scenario import GroundTruth
from spoofbench.sensing import Detection, DetectionFrame
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


def snap(t, track_id, x, y, status="confirmed", weights=None):
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
    )


NO_MATCH = TruthCorrespondence(by_step={}, distances={})


def purity_of(snaps, origins):
    """The purity timeline and inclusion rate of rows no track matched."""
    consumed = score_consumption(snaps, NO_MATCH, origins, (0, 0))
    return consumed.purity_timeline, consumed.spoof_inclusion_rate


def report_of(snaps, truth):
    """compute_run_report of rows that consumed nothing."""
    spoofed = SimpleNamespace(spoofed_frames=(), config=SimpleNamespace(injection_window=(0, 0)))
    return compute_run_report(snaps, truth, spoofed, "gnn", "clean", 0, "0" * 64, 5.0)


def test_match_exact_position():
    truth = truth_of({7: (10.0, 20.0)}, T=3)
    snaps = [snap(t, 4, 10.0, 20.0) for t in range(3)]
    corr = match_tracks_to_truth(snaps, truth)
    assert corr.platform_of(1, 4) == 7
    assert corr.by_step == {t: {4: 7} for t in range(3)}


def test_match_beyond_cutoff_stays_unmatched():
    truth = truth_of({0: (0.0, 0.0)}, T=2)
    snaps = [snap(0, 1, 150.0, 0.0)]
    corr = match_tracks_to_truth(snaps, truth)
    assert corr.platform_of(0, 1) is None


@pytest.mark.parametrize("contested", [False, True])
def test_match_exactly_at_cutoff_stays_unmatched(contested):
    # matching a record exactly MATCH_CUTOFF_M away would cost as much
    # as leaving it unmatched; the rule, not the solver's tie-breaking,
    # decides: candidates lie strictly inside the cutoff
    truth = truth_of({0: (0.0, 0.0), 1: (500.0, 0.0)}, T=1)
    snaps = [snap(0, 1, 0.0, -100.0)]
    if contested:
        # two tracks on platform 1 send the step to the solver
        snaps += [snap(0, 2, 505.0, 0.0), snap(0, 3, 495.0, 0.0)]
    corr = match_tracks_to_truth(snaps, truth)
    assert corr.platform_of(0, 1) is None
    assert 0 not in corr.distances.get(0, {})
    assert len(corr.by_step.get(0, {})) == int(contested)


def test_match_tentative_ignored():
    truth = truth_of({0: (0.0, 0.0)}, T=2)
    snaps = [snap(0, 1, 0.0, 0.0, status="tentative")]
    corr = match_tracks_to_truth(snaps, truth)
    assert corr.by_step == {}


def test_match_ignores_steps_outside_the_run():
    # a record at t = -1 would otherwise be read against the final truth
    # step, counted from the end, where it sits at distance 0
    truth = truth_of({0: [(float(t), 0.0) for t in range(3)]}, T=3)
    snaps = [snap(-1, 1, 2.0, 0.0), snap(3, 2, 2.0, 0.0)]
    corr = match_tracks_to_truth(snaps, truth)
    assert corr.by_step == {} and corr.distances == {}


def test_match_crossed_pairs_minimize_total_distance():
    # tracks sit between two platforms; the optimal pairing is not the
    # greedy nearest-first one
    truth = truth_of({0: (0.0, 0.0), 1: (10.0, 0.0)}, T=1)
    snaps = [snap(0, 100, 4.0, 0.0), snap(0, 101, 6.0, 0.0)]
    corr = match_tracks_to_truth(snaps, truth)
    # 4+4 beats 6+6
    assert corr.by_step[0] == {100: 0, 101: 1}


# offsets from a platform whose norm is exactly MATCH_CUTOFF_M in floats
_AT_CUTOFF = ((100.0, 0.0), (0.0, -100.0), (60.0, 80.0), (-80.0, 60.0))


def _matcher_case(rng):
    """A multi-step run with steps of every kind. Platforms sit on
    integer coordinates, so a record placed at an _AT_CUTOFF offset is
    exactly MATCH_CUTOFF_M away; other offsets are arbitrary floats.

    empty: no confirmed record. far: candidates none. sparse: at most one
    candidate per track and per platform, all inside the cutoff. edge: the
    same, but one record exactly at the cutoff, which is no candidate. shared: tracks crowd
    one platform. dense: platforms crowd too, so tracks have several
    candidates. Returns (truth, snapshots).
    """
    modes = ["empty", "far", "sparse", "edge", "shared", "dense"]
    modes += list(rng.choice(modes, size=int(rng.integers(0, 4))))
    rng.shuffle(modes)
    T, P = len(modes), int(rng.integers(2, 4))
    paths = np.zeros((P, T, 2))
    snaps = []
    next_id = iter(range(1000))
    for t, mode in enumerate(modes):
        if mode == "dense":
            paths[:, t] = rng.integers(0, 150, (P, 2))
        else:
            paths[:, t, 0] = 1000.0 * np.arange(P) + rng.integers(-20, 20, P)
            paths[:, t, 1] = rng.integers(-20, 20, P)
        near = rng.permutation(P)[: int(rng.integers(1, P + 1))]
        if mode == "far":
            offsets = [(pid, rng.uniform(110.0, 400.0) * np.array([1.0, 0.0])) for pid in near]
        elif mode in ("sparse", "edge"):
            offsets = [(pid, rng.uniform(-60.0, 60.0, 2)) for pid in near]
            if mode == "edge":
                offsets[0] = (offsets[0][0], np.array(_AT_CUTOFF[rng.integers(len(_AT_CUTOFF))]))
        elif mode == "shared":
            offsets = [(near[0], rng.uniform(-60.0, 60.0, 2)) for _ in range(int(rng.integers(2, 4)))]
        elif mode == "dense":
            offsets = [
                (int(rng.integers(P)), rng.uniform(-90.0, 90.0, 2))
                for _ in range(int(rng.integers(2, 6)))
            ]
            if rng.random() < 0.5:
                offsets.append((int(rng.integers(P)), np.array(_AT_CUTOFF[rng.integers(len(_AT_CUTOFF))])))
        else:
            offsets = []
        for pid, offset in offsets:
            snaps.append(snap(t, next(next_id), *(paths[pid, t] + offset)))
        # never matched: a tentative record on a platform
        snaps.append(snap(t, next(next_id), *paths[0, t], status="tentative"))
    # never matched: records past the last step, on a platform's last position
    for t in (T, T + 2):
        snaps.append(snap(t, next(next_id), *paths[0, T - 1]))
    order = rng.permutation(len(snaps))
    truth = truth_of({pid: paths[pid] for pid in range(P)}, T=T)
    return truth, [snaps[i] for i in order]


def test_match_is_the_per_step_optimum_over_many_steps():
    rng = np.random.default_rng(2024)
    for _ in range(40):
        truth, snaps = _matcher_case(rng)
        corr = match_tracks_to_truth(snaps, truth)
        T, pids = truth.n_steps, truth.platform_ids
        kinds = set()
        for t in range(T):
            confirmed = sorted(
                (s for s in snaps if s.t == t and s.status == "confirmed"),
                key=lambda s: s.track_id,
            )
            # the matcher's exact distances: two squares summed, no BLAS dot
            norms = np.array([
                [math.sqrt(dx * dx + dy * dy)
                 for dx, dy in (np.array([s.x, s.y]) - truth.positions[pid][t] for pid in pids)]
                for s in confirmed
            ]).reshape(len(confirmed), len(pids))
            costs = np.where(norms < MATCH_CUTOFF_M, norms, np.inf)
            candidate = np.isfinite(costs)
            uncontested = (
                candidate.sum(axis=1).max(initial=0) <= 1
                and candidate.sum(axis=0).max(initial=0) <= 1
            )
            kinds.add(("uncontested" if uncontested else "contested", bool(candidate.any())))
            mapping = corr.by_step.get(t, {})
            row = {s.track_id: i for i, s in enumerate(confirmed)}
            got = sum(costs[row[tid], pids.index(pid)] for tid, pid in mapping.items())
            got += MATCH_CUTOFF_M * (len(confirmed) - len(mapping))
            assert got == pytest.approx(min_cost_by_enumeration(costs, MATCH_CUTOFF_M), abs=1e-9)
            assert (t in corr.by_step) == bool(mapping)
            # confirmed tracks only, one track per platform
            assert set(mapping) <= set(row)
            assert len(set(mapping.values())) == len(mapping)
            for tid, pid in mapping.items():
                assert corr.distances[pid][t] == norms[row[tid], pids.index(pid)]
                assert corr.distances[pid][t] < MATCH_CUTOFF_M
        assert {("uncontested", True), ("contested", True), ("uncontested", False)} <= kinds
        # nothing past the last step, nothing unconfirmed
        assert all(t < T for t in corr.by_step)
        matches = [(t, tid, pid) for t, m in corr.by_step.items() for tid, pid in m.items()]
        assert sum(len(by_t) for by_t in corr.distances.values()) == len(matches)
        # order contracts: steps ascending, track ids ascending within a step
        keys = [(t, tid) for t, tid, _ in matches]
        assert keys == sorted(keys)
        first_match = list(dict.fromkeys(pid for _, _, pid in matches))
        assert list(corr.distances) == first_match
        for pid, by_t in corr.distances.items():
            assert list(by_t) == sorted(by_t)
            assert list(by_t) == [t for t, _, p in matches if p == pid]


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
                if j is not None and d >= MATCH_CUTOFF_M:
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
        assert len(set(got_mapping.values())) == len(got_mapping)
        for s in snaps:
            if s.track_id in got_mapping:
                pid = corr.platform_of(0, s.track_id)
                d = float(np.linalg.norm(np.array([s.x, s.y]) - platforms[pid]))
                assert corr.distances[pid] == {0: pytest.approx(d, abs=1e-9)}


def test_drift_zero_when_on_truth():
    truth = truth_of({0: (5.0, 5.0)}, T=4)
    snaps = [snap(t, 1, 5.0, 5.0) for t in range(4)]
    corr = match_tracks_to_truth(snaps, truth)
    drift = drift_from_truth(corr, truth)
    assert drift.mean_m == 0.0
    assert drift.max_m == 0.0
    assert drift.matched_steps == 4


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
    assert drift.matched_steps == 0
    assert drift.mean_m is None
    assert drift.max_m is None


def test_switches_stable_zero():
    truth = truth_of({0: (0.0, 0.0)}, T=4)
    snaps = [snap(t, 9, 0.5, 0.0) for t in range(4)]
    assert report_of(snaps, truth).switch_count == 0


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
    report = report_of(snaps, truth)
    assert report.switch_count == 1
    assert report.per_platform_switches[0] == 1


def test_confusion_fractions():
    truth = truth_of({0: (0.0, 0.0)}, T=10)
    snaps = [snap(t, 1, 0.0, 0.0, weights={t: 1.0}) for t in range(10)]
    origins = {(t, t): "spoof:ghost" if t < 2 else "platform:0" for t in range(10)}
    corr = match_tracks_to_truth(snaps, truth)
    row = score_consumption(snaps, corr, origins, (0, 0)).confusion[0]
    assert row["platform:0"] == pytest.approx(0.8)
    assert row["spoof"] == pytest.approx(0.2)
    assert sum(row.values()) == pytest.approx(1.0, abs=1e-9)


def test_confusion_rows_sum_to_one_random():
    rng = np.random.default_rng(21)
    truth = truth_of({0: (0.0, 0.0), 1: (50.0, 0.0)}, T=20)
    sources = ["platform:0", "platform:1", "clutter", "spoof:mirror"]
    snaps, origins = [], {}
    for t in range(20):
        for tid, px in ((1, 0.0), (2, 50.0)):
            k = int(rng.integers(1, 4))
            w = rng.dirichlet(np.ones(k))
            ids = [10 * tid + i for i in range(k)]
            for det_id in ids:
                origins[t, det_id] = sources[int(rng.integers(len(sources)))]
            snaps.append(snap(t, tid, px, 0.0, weights=dict(zip(ids, w.tolist()))))
    corr = match_tracks_to_truth(snaps, truth)
    confusion = score_consumption(snaps, corr, origins, (0, 0)).confusion
    assert confusion
    for row in confusion.values():
        assert sum(row.values()) == pytest.approx(1.0, abs=1e-9)


def test_detection_origins_keys_every_detection_by_step_and_id():
    def det(t, i, label, truth_id=None):
        return Detection(t, i, 0.0, 0.0, 1.0, 0.0, 1.0, label, truth_id)

    frames = [
        DetectionFrame(t=0, detections=(det(0, 0, "clean", 3), det(0, 1, "clutter"))),
        DetectionFrame(t=1, detections=(det(1, 0, "spoof:drift", 3), det(1, 2, "spoof:ghost"))),
    ]
    assert detection_origins(frames) == {
        (0, 0): "platform:3",
        (0, 1): "clutter",
        (1, 0): "spoof:drift",
        (1, 2): "spoof:ghost",
    }


def test_purity_single_origin_is_one():
    snaps = [snap(0, 1, 0.0, 0.0, weights={5: 1.0})]
    [point], _ = purity_of(snaps, {(0, 5): "platform:0"})
    assert point.purity == 1.0
    assert point.spoof_majority_fraction == 0.0


def test_purity_soft_split():
    snaps = [snap(0, 1, 0.0, 0.0, weights={1: 0.7, 2: 0.3})]
    [point], _ = purity_of(snaps, {(0, 1): "platform:0", (0, 2): "spoof:ghost"})
    assert point.purity == pytest.approx(0.7)
    assert point.spoof_majority_fraction == 0.0


def test_purity_spoof_majority_flagged():
    # a track living entirely on ghosts is pure, just pure spoof
    snaps = [snap(0, 1, 0.0, 0.0, weights={1: 1.0})]
    [point], _ = purity_of(snaps, {(0, 1): "spoof:ghost"})
    assert point.purity == 1.0
    assert point.spoof_majority_fraction == 1.0


def test_purity_skips_consumptionless_steps():
    snaps = [snap(0, 1, 0.0, 0.0), snap(1, 1, 0.0, 0.0, weights={1: 1.0})]
    timeline, _ = purity_of(snaps, {(1, 1): "clutter"})
    assert [p.t for p in timeline] == [1]


def test_spoof_stats_clean_run():
    truth = truth_of({0: (0.0, 0.0)}, T=10)
    snaps = [snap(t, 1, 0.0, 0.0, weights={t: 1.0}) for t in range(10)]
    origins = {(t, t): "platform:0" for t in range(10)}
    corr = match_tracks_to_truth(snaps, truth)
    consumed = score_consumption(snaps, corr, origins, (2, 5))
    assert consumed.spoof_inclusion_rate == 0.0
    assert recovery_rate(
        corr, truth, consumed.spoofed_platforms, noise_sigma_m=5.0, injection_window=(2, 5)
    ) == 1.0
    assert consumed.false_attribution == 0.0


def test_spoof_inclusion_counts_majority_updates():
    truth = truth_of({0: (0.0, 0.0)}, T=10)
    snaps = [snap(t, 1, 0.0, 0.0, weights={t: 1.0}) for t in range(10)]
    origins = {(t, t): "spoof:drift" if t in (3, 4) else "platform:0" for t in range(10)}
    _, inclusion = purity_of(snaps, origins)
    assert inclusion == pytest.approx(0.2)


def test_recovery_requires_sustained_return():
    truth = truth_of({0: (0.0, 0.0)}, T=30)
    eps = 15.0  # 3 sigma at sigma=5

    def run_with_tail(tail_offset):
        snaps, origins = [], {}
        for t in range(30):
            if 5 <= t <= 9:
                origins[t, t], x = "spoof:drift", 30.0
            else:
                origins[t, t], x = "platform:0", tail_offset
            snaps.append(snap(t, 1, x, 0.0, weights={t: 1.0}))
        corr = match_tracks_to_truth(snaps, truth)
        spoofed = score_consumption(snaps, corr, origins, (5, 9)).spoofed_platforms
        return recovery_rate(corr, truth, spoofed, noise_sigma_m=5.0, injection_window=(5, 9))

    # returns to truth after the window: recovered
    assert run_with_tail(0.0) == 1.0
    # stays outside 3 sigma forever: not recovered
    assert run_with_tail(eps + 5.0) == 0.0


def test_false_attribution_counts_cross_platform_weight():
    truth = truth_of({0: (0.0, 0.0), 1: (50.0, 0.0)}, T=4)
    snaps, origins = [], {}
    for t in range(4):
        # track 1 follows platform 0 but consumes one detection from
        # platform 1 at t=0
        origins[t, t] = "platform:1" if t == 0 else "platform:0"
        origins[t, 100 + t] = "platform:1"
        snaps.append(snap(t, 1, 0.0, 0.0, weights={t: 1.0}))
        snaps.append(snap(t, 2, 50.0, 0.0, weights={100 + t: 1.0}))
    corr = match_tracks_to_truth(snaps, truth)
    consumed = score_consumption(snaps, corr, origins, (0, 0))
    assert consumed.false_attribution == pytest.approx(1.0 / 8.0)


def test_zero_weight_row_counts_in_confusion_but_not_in_purity():
    # JPDA betas underflow to exactly 0.0 under a wide gate and positive
    # clutter mass: such a matched row keeps its 0.0 confusion entry but
    # is no purity or inclusion update
    truth = truth_of({0: (0.0, 0.0)}, T=4)
    snaps, origins = [], {}
    for t, (weight, origin) in enumerate(
        [(0.5, "platform:0"), (0.0, "clutter"), (0.5, "platform:0"), (0.5, "platform:0")]
    ):
        origins[t, 10 + t] = origin
        snaps.append(snap(t, 1, 0.0, 0.0, weights={10 + t: weight}))
    # an unmatched track on a ghost: the one spoof-dominated update
    origins[0, 20] = "spoof:ghost"
    snaps.insert(1, snap(0, 2, 500.0, 0.0, weights={20: 1.0}))
    corr = match_tracks_to_truth(snaps, truth)
    consumed = score_consumption(snaps, corr, origins, (0, 3))
    assert consumed.confusion == {0: {"clutter": 0.0, "platform:0": 1.0}}
    assert [p.t for p in consumed.purity_timeline] == [0, 2, 3]
    assert consumed.spoof_inclusion_rate == 0.25
    assert consumed.false_attribution == 0.0
    assert consumed.spoofed_platforms == frozenset()


def test_normalized_impact_values():
    assert normalized_impact(77.10) == pytest.approx(15.42)
    assert normalized_impact(0.0) == 0.0
    assert normalized_impact(500.0) == pytest.approx(100.0)
    assert D_NORM_M == 500.0
    assert normalized_impact(0.25 * D_NORM_M) == pytest.approx(25.0)
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
