"""Track lifecycle, births, and the shared run loop."""

import hashlib
import math
import sys
from collections import deque

import numpy as np
import pytest

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
    Track,
    TrackStatus,
    TrackerParams,
    birth_tracks,
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
    return Detection(
        t=t, detection_id=i, z=np.array([x, y]), R=25.0 * np.eye(2), label="clutter"
    )


def fresh_track(track_id=0, window=3):
    est = estimate_from_detection(np.zeros(2), 25.0 * np.eye(2))
    return Track(
        track_id=track_id,
        estimate=est,
        status=TrackStatus.TENTATIVE,
        hit_history=deque(maxlen=window),
        miss_streak=0,
        birth_detection_id=0,
    )


def params(**kw):
    return TrackerParams(**kw)


def test_confirm_two_of_three():
    track = fresh_track()
    p = params()
    lifecycle_update(track, hit=True, params=p)
    assert track.status is TrackStatus.TENTATIVE
    lifecycle_update(track, hit=True, params=p)
    assert track.status is TrackStatus.CONFIRMED


def test_confirm_two_of_three_with_gap():
    track = fresh_track()
    p = params()
    lifecycle_update(track, hit=True, params=p)
    lifecycle_update(track, hit=False, params=p)
    lifecycle_update(track, hit=True, params=p)
    assert track.status is TrackStatus.CONFIRMED


def test_delete_after_five_misses():
    track = fresh_track()
    p = params()
    for _ in range(4):
        lifecycle_update(track, hit=False, params=p)
        assert track.status is not TrackStatus.DELETED
    lifecycle_update(track, hit=False, params=p)
    assert track.status is TrackStatus.DELETED


def test_alternating_never_deleted():
    track = fresh_track()
    p = params()
    for k in range(100):
        lifecycle_update(track, hit=k % 2 == 0, params=p)
        assert track.status is not TrackStatus.DELETED


def test_update_deleted_rejected():
    track = fresh_track()
    p = params()
    for _ in range(5):
        lifecycle_update(track, hit=False, params=p)
    with pytest.raises(ValueError):
        lifecycle_update(track, hit=True, params=p)


def test_birth_all_unassigned():
    p = params()
    dets = [det(0, 1.0, 2.0), det(1, 3.0, 4.0), det(2, 5.0, 6.0)]
    source = iter(range(100))
    tracks = birth_tracks(dets, p, id_source=source)
    assert len(tracks) == 3
    for track, d in zip(tracks, dets):
        assert track.status is TrackStatus.TENTATIVE
        np.testing.assert_allclose(track.estimate.position(), d.z)


def test_birth_records_assignment():
    [track] = birth_tracks([det(7, 1.0, 2.0, t=3)], params(), id_source=iter([42]))
    assert (track.track_id, track.birth_detection_id) == (42, 7)
    # a birth's row carries its spawning detection, but no score and no
    # consumed weight: the detection started the track, it did not update it
    frames = [
        DetectionFrame(t=0, detections=()),
        DetectionFrame(t=1, detections=(det(7, 1.0, 2.0, t=1),)),
    ]
    run = run_tracker(frames, params(), gnn_step)
    [born] = run.steps[1].births
    assert born.hit_history[-1] is True
    [row] = run.snapshots
    assert (row.t, row.track_id, row.status) == (1, born.track_id, "tentative")
    assert (row.x, row.y) == (1.0, 2.0)
    assert row.detection_id == 7
    assert row.score is None
    assert row.weights == {} and row.miss is None


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


@pytest.mark.parametrize("field", ["gamma", "q", "dt_s", "v_max_mps", "hit_threshold"])
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
    born = [t for step in run.steps for t in step.births]
    ids = [t.track_id for t in born]
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
    write_snapshots_jsonl(path, run, include_beta=True)
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
    deleted_ids = {tid for step in run.steps for tid in step.deletions}
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
    write_snapshots_jsonl(path, run, include_beta=name == "jpda")
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
        write_snapshots_jsonl(path, run, include_beta=name == "jpda")
        rows.append(path.read_bytes())
    assert rows[0] == rows[1]
