"""Track lifecycle, births, and the shared run loop."""

import hashlib
import math
import sys
from collections import deque
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import Track
from _oracles import lifecycle_update as lifecycle_update_per_track

from spoofbench.codec import bounds
from spoofbench.errors import ConfigError
from spoofbench.geometry import Region
from spoofbench.scenario import (
    PlatformSpec,
    ScenarioConfig,
    build_scenario,
    default_scenario_config,
)
from spoofbench.sensing import Detection, DetectionFrame, SensorConfig, generate_clean_run
from spoofbench.tracking import (
    TrackBank,
    TrackStatus,
    TrackerParams,
    birth_tracks,
    drop_deleted,
    lifecycle_update,
    read_snapshots_jsonl,
    run_tracker,
    write_snapshots_jsonl,
)
from spoofbench.tracker_gnn import gnn_step
from spoofbench.tracker_jpda import jpda_step
from spoofbench.estimation import estimate_from_detection

REGION = Region(-600.0, 600.0, -600.0, 600.0)


def det(i, x, y, t=0):
    return Detection(t, i, float(x), float(y), 25.0, 0.0, 25.0, "clutter")


def fresh_bank(window=3):
    """A bank of one tentative track with an empty hit history."""
    x, P = estimate_from_detection(np.zeros(2), 25.0 * np.eye(2))
    return TrackBank(
        ids=[0],
        x=x[None],
        P=P[None],
        status=[TrackStatus.TENTATIVE],
        miss_streak=[0],
        hit_history=[deque(maxlen=window)],
    )


def params(**kw):
    return TrackerParams(**kw)


def test_confirm_two_of_three():
    bank = fresh_bank()
    p = params()
    lifecycle_update(bank, [True], params=p)
    assert bank.status[0] is TrackStatus.TENTATIVE
    lifecycle_update(bank, [True], params=p)
    assert bank.status[0] is TrackStatus.CONFIRMED


def test_confirm_two_of_three_with_gap():
    bank = fresh_bank()
    p = params()
    lifecycle_update(bank, [True], params=p)
    lifecycle_update(bank, [False], params=p)
    lifecycle_update(bank, [True], params=p)
    assert bank.status[0] is TrackStatus.CONFIRMED


def test_delete_after_five_misses():
    bank = fresh_bank()
    p = params()
    for _ in range(4):
        lifecycle_update(bank, [False], params=p)
        assert bank.status[0] is not TrackStatus.DELETED
    lifecycle_update(bank, [False], params=p)
    assert bank.status[0] is TrackStatus.DELETED


def test_alternating_never_deleted():
    bank = fresh_bank()
    p = params()
    for k in range(100):
        lifecycle_update(bank, [k % 2 == 0], params=p)
        assert bank.status[0] is not TrackStatus.DELETED


def test_update_deleted_rejected():
    bank = fresh_bank()
    p = params()
    for _ in range(5):
        lifecycle_update(bank, [False], params=p)
    with pytest.raises(ValueError):
        lifecycle_update(bank, [True], params=p)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    window=st.one_of(st.integers(1, 6), st.just(sys.maxsize)),
    hits_needed=st.integers(1, 6),
    delete_misses=st.integers(1, 6),
    born=st.lists(st.booleans(), min_size=1, max_size=6),
    steps=st.lists(st.lists(st.booleans(), min_size=6, max_size=6), max_size=40),
)
def test_bank_lifecycle_matches_per_track_oracle(window, hits_needed, delete_misses, born, steps):
    # one row per entry of born, whose hit history starts with a birth's
    # hit if it is true; each step gives the live rows, in track-id order,
    # the first of its hits. Status, miss streak, hit history and the
    # step of each deletion match one per-track call per track
    p = params(
        confirm_hits=min(hits_needed, window), confirm_window=window, delete_misses=delete_misses
    )
    n = len(born)
    histories = [[True] if b else [] for b in born]
    bank = TrackBank(
        ids=list(range(n)),
        x=np.zeros((n, 4)),
        P=np.zeros((n, 4, 4)),
        status=[TrackStatus.TENTATIVE] * n,
        miss_streak=[0] * n,
        hit_history=[deque(h, maxlen=window) for h in histories],
    )
    tracks = [
        Track(i, None, TrackStatus.TENTATIVE, deque(h, maxlen=window), 0, 0)
        for i, h in enumerate(histories)
    ]
    for hits in steps:
        lifecycle_update(bank, hits[: len(bank)], p)
        for track, hit in zip(tracks, hits):
            lifecycle_update_per_track(track, hit, p)
        assert bank.status == [tr.status for tr in tracks]
        assert bank.miss_streak == [tr.miss_streak for tr in tracks]
        assert [list(h) for h in bank.hit_history] == [list(tr.hit_history) for tr in tracks]
        drop_deleted(bank)
        tracks = [tr for tr in tracks if tr.status is not TrackStatus.DELETED]
        assert bank.ids == [tr.track_id for tr in tracks]
        assert bank.x.shape == (len(tracks), 4) and bank.P.shape == (len(tracks), 4, 4)


def test_birth_all_unassigned():
    p = params()
    dets = [det(0, 1.0, 2.0), det(1, 3.0, 4.0), det(2, 5.0, 6.0)]
    source = iter(range(100))
    bank = TrackBank()
    frame = DetectionFrame(0, tuple(dets))
    rows = birth_tracks(bank, frame, np.ones(3, bool), p, id_source=source)
    assert len(rows) == 3
    for row, d in enumerate(dets):
        assert bank.status[row] is TrackStatus.TENTATIVE
        np.testing.assert_allclose(bank.x[row, :2], (d.x, d.y))


def test_birth_reads_only_the_marked_columns():
    frame = DetectionFrame(0, (det(3, 1.0, 2.0), det(4, 3.0, 4.0), det(8, 5.0, 6.0)))
    bank = TrackBank()
    born = np.array([True, False, True])
    rows = birth_tracks(bank, frame, born, params(), id_source=iter([10, 11]))
    assert [(r.track_id, r.detection_id, r.x, r.y) for r in rows] == [
        (10, 3, 1.0, 2.0), (11, 8, 5.0, 6.0)
    ]
    assert birth_tracks(bank, frame, np.zeros(3, bool), params(), id_source=iter([])) == []
    assert bank.ids == [10, 11]


def test_birth_records_assignment():
    bank = TrackBank()
    frame = DetectionFrame(3, (det(7, 1.0, 2.0, t=3),))
    [born] = birth_tracks(bank, frame, np.ones(1, bool), params(), id_source=iter([42]))
    assert (born.t, born.track_id, born.detection_id) == (3, 42, 7)
    # a birth's row carries its spawning detection, but no score and no
    # consumed weight: the detection started the track, it did not update it
    frames = [
        DetectionFrame(t=0, detections=()),
        DetectionFrame(t=1, detections=(det(7, 1.0, 2.0, t=1),)),
    ]
    run = run_tracker(frames, params(), gnn_step)
    [row] = run.steps[1].births
    assert run.bank.hit_history[run.bank.ids.index(row.track_id)][-1] is True
    assert run.snapshots == [row]
    assert (row.t, row.status) == (1, "tentative")
    assert (row.x, row.y) == (1.0, 2.0)
    assert row.detection_id == 7
    assert row.score is None
    assert row.weights == {} and row.miss is None


def test_births_keep_the_bank_in_track_id_order():
    bank = TrackBank()
    frame = DetectionFrame(0, (det(0, 1.0, 2.0), det(1, 3.0, 4.0)))
    birth_tracks(bank, frame, np.array([True, False]), params(), id_source=iter([5]))
    with pytest.raises(ValueError, match="track ids must increase"):
        birth_tracks(bank, frame, np.array([False, True]), params(), id_source=iter([5]))


def test_params_validation_and_round_trip():
    with pytest.raises(ConfigError):
        params(p_detect=0.0)
    with pytest.raises(ConfigError):
        params(gamma=-1.0)
    with pytest.raises(ConfigError):
        params(confirm_hits=5, confirm_window=3)
    p = params(q=2.0, delete_misses=7)
    assert TrackerParams.from_dict(p.as_dict()) == p
    bad = p.as_dict()
    bad["whatever"] = 1
    with pytest.raises(ConfigError):
        TrackerParams.from_dict(bad)


@pytest.mark.parametrize(
    "field",
    [name for name, _ in bounds(TrackerParams) if get_type_hints(TrackerParams)[name] is float],
)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_params_built_directly_reject_non_finite(field, value):
    # NaN passes every range comparison, so only the finiteness check stops it
    with pytest.raises(ConfigError, match=f"{field} must be finite"):
        TrackerParams(**{field: value})


def two_platform_frames(duration=40.0, seed=0, clutter=0.0):
    platforms = (
        PlatformSpec(
            platform_id=0,
            class_id=0,
            waypoints=((0.0, (-300.0, 0.0)), (duration, (-300.0 + duration * 8.0, 0.0))),
        ),
        PlatformSpec(
            platform_id=1,
            class_id=0,
            waypoints=((0.0, (300.0, 100.0)), (duration, (300.0, 100.0))),
            stationary=True,
        ),
    )
    cfg = ScenarioConfig(duration_s=duration, dt_s=1.0, platforms=platforms, seed=0, region=REGION)
    truth = build_scenario(cfg)
    sensor = SensorConfig(clutter_rate=clutter)
    return truth, generate_clean_run(truth, sensor, seed=seed)


@pytest.mark.parametrize("step_fn,name", [(gnn_step, "gnn"), (jpda_step, "jpda")])
def test_track_ids_unique_never_reused(step_fn, name):
    _, frames = two_platform_frames(clutter=2.0)
    run = run_tracker(frames, params(), step_fn)
    ids = [row.track_id for step in run.steps for row in step.births]
    assert len(ids) == len(set(ids))


@pytest.mark.parametrize("step_fn,name", [(gnn_step, "gnn"), (jpda_step, "jpda")])
def test_confirmed_count_settles_to_platforms(step_fn, name):
    # clean well-separated scenario, no clutter: exactly one confirmed
    # track per platform from early on, for the whole run
    ok = 0
    for seed in range(20):
        _, frames = two_platform_frames(seed=seed)
        run = run_tracker(frames, params(gamma=18.4), step_fn)
        by_t = {}
        for snap in run.snapshots:
            if snap.status == TrackStatus.CONFIRMED.value:
                by_t.setdefault(snap.t, 0)
                by_t[snap.t] += 1
        settled = all(by_t.get(t, 0) == 2 for t in range(5, 40))
        ok += settled
    assert ok >= 19


def _bits(value):
    return None if value is None else value.hex()


def test_snapshots_jsonl_round_trip(tmp_path):
    _, frames = two_platform_frames(clutter=1.0)
    run = run_tracker(frames, params(), jpda_step)
    path = tmp_path / "snapshots.jsonl"
    write_snapshots_jsonl(path, run.snapshots, include_beta=True)
    again = read_snapshots_jsonl(path, include_beta=True)
    assert len(again) == len(run.snapshots)
    for a, b in zip(run.snapshots, again):
        assert (a.t, a.track_id, a.status, a.detection_id) == (b.t, b.track_id, b.status, b.detection_id)
        assert a.x == b.x and a.y == b.y
        assert a.vx == b.vx and a.vy == b.vy
        assert a.score == b.score
        # the beta object reads back into miss and int-keyed weights, bit for bit
        assert _bits(a.miss) == _bits(b.miss)
        assert {k: _bits(w) for k, w in a.weights.items()} == {
            k: _bits(w) for k, w in b.weights.items()
        }
    assert any(b.weights for b in again)
    assert any(b.miss is None for b in again) and any(b.miss is not None for b in again)


def test_deleted_tracks_get_final_snapshot():
    _, frames = two_platform_frames(clutter=3.0, seed=4)
    run = run_tracker(frames, params(), gnn_step)
    # every track that left the bank was deleted
    deleted_ids = {snap.track_id for snap in run.snapshots} - set(run.bank.ids)
    assert deleted_ids, "expected clutter births to die"
    snapshot_by_track = {}
    for snap in run.snapshots:
        snapshot_by_track.setdefault(snap.track_id, []).append(snap)
    for tid in deleted_ids:
        statuses = [s.status for s in snapshot_by_track[tid]]
        assert statuses[-1] == TrackStatus.DELETED.value


# sha256 of snapshots.jsonl for one clutter run under each tracker; any
# change to a row's content or to the row order shows here. The tracker
# does its arithmetic elementwise in a fixed order, so one set holds under
# every OpenBLAS kernel (see test_harness.PINNED_REPORTS). Recorded with
# numpy 2.4 on x86_64.
PINNED_SNAPSHOTS = {
    "gnn": "4aa8c80261289cf57db7c34462383b622bd8ec7a6528b2b1323dcb4a12d7dcbe",
    "jpda": "3a1bb594c155fe1a846dbe728c545ab47aedddb58f0c1e21ec3166444c61a451",
}


@pytest.mark.parametrize("step_fn,name", [(gnn_step, "gnn"), (jpda_step, "jpda")])
def test_snapshot_rows_pinned(tmp_path, step_fn, name):
    _, frames = two_platform_frames(clutter=3.0, seed=4)
    run = run_tracker(frames, params(), step_fn)
    path = tmp_path / "snapshots.jsonl"
    write_snapshots_jsonl(path, run.snapshots, include_beta=name == "jpda")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_SNAPSHOTS[name]


@pytest.mark.parametrize("step_fn,name", [(gnn_step, "gnn"), (jpda_step, "jpda")])
def test_hit_history_does_not_depend_on_a_huge_window(tmp_path, step_fn, name):
    # a window as long as the run never drops a hit, so the largest window
    # TrackerParams accepts must give the same rows
    scenario = default_scenario_config()
    truth = build_scenario(scenario)
    sensor = SensorConfig()
    frames = generate_clean_run(truth, sensor, seed=3)
    rows = []
    for window in (truth.n_steps, sys.maxsize):
        run_params = TrackerParams(
            dt_s=scenario.dt_s,
            p_detect=sensor.p_detect,
            clutter_density=sensor.clutter_rate / sensor.fov.area,
            confirm_window=window,
        )
        path = tmp_path / f"{name}-{window}.jsonl"
        run = run_tracker(frames, run_params, step_fn)
        write_snapshots_jsonl(path, run.snapshots, include_beta=name == "jpda")
        rows.append(path.read_bytes())
    assert rows[0] == rows[1]
