import hashlib
import math
from pathlib import Path

import numpy as np
import pytest

from spoofbench.codec import read_csv
from spoofbench.errors import ConfigError
from spoofbench.geometry import MAX_SPEED_MPS, Region
from spoofbench.harness import load_benchmark_config
from spoofbench.scenario import PlatformSpec, ScenarioConfig, build_scenario
from spoofbench.sensing import (
    Detection,
    DetectionFrame,
    SensorConfig,
    generate_clean_run,
    write_detection_csv,
)
from spoofbench.spoofing import (
    SpoofConfig,
    SpoofLogEntry,
    SpoofType,
    apply_spoof,
    reflect_across_axis,
    write_spoof_log_csv,
)

REGION = Region(-600.0, 600.0, -600.0, 600.0)
DEMO_CONFIG = Path(__file__).resolve().parent.parent / "demos" / "benchmark_config.json"


def frame_with(points, t=0):
    dets = tuple(
        Detection(t, i, float(p[0]), float(p[1]), 25.0, 0.0, 25.0, "clean", truth_id=i)
        for i, p in enumerate(points)
    )
    return DetectionFrame(t=t, detections=dets)


def spoof_one(frame, cfg):
    """The spoofed frame of a one-frame stream."""
    return apply_spoof([frame], cfg).spoofed_frames[0]


def clean_run(duration=50.0, seed=0, n_platforms=2):
    platforms = tuple(
        PlatformSpec(
            platform_id=i,
            class_id=0,
            waypoints=((0.0, (i * 200.0 - 100.0, 0.0)), (duration, (i * 200.0 - 100.0, 0.0))),
            stationary=True,
        )
        for i in range(n_platforms)
    )
    cfg = ScenarioConfig(duration_s=duration, dt_s=1.0, platforms=platforms, seed=0, region=REGION)
    truth = build_scenario(cfg)
    return generate_clean_run(truth, SensorConfig(clutter_rate=0.5), seed=seed)


def position(det):
    return np.array((det.x, det.y))


# drift


def test_drift_zero_alpha_identity():
    frame = frame_with([(10.0, 20.0), (-5.0, 3.0)], t=4)
    cfg = SpoofConfig(spoof_type=SpoofType.DRIFT, injection_window=(0, 10), alpha=0.0)
    out = spoof_one(frame, cfg)
    for before, after in zip(frame.detections, out.detections):
        assert (before.x, before.y) == (after.x, after.y)


def test_drift_hand_value():
    # 3 s into the window
    frame = frame_with([(10.0, 20.0)], t=3)
    cfg = SpoofConfig(
        spoof_type=SpoofType.DRIFT, injection_window=(0, 10), alpha=2.0, drift_dir=(1.0, 0.0)
    )
    out = spoof_one(frame, cfg)
    np.testing.assert_allclose(position(out.detections[0]), [16.0, 20.0])
    assert out.detections[0].label == "spoof:drift"
    assert out.detections[0].truth_id == 0
    # same detection moved, not a new one appended
    assert len(out.detections) == len(frame.detections)
    assert out.detections[0].detection_id == frame.detections[0].detection_id


def test_drift_before_window_untouched():
    frames = clean_run(duration=20.0)
    cfg = SpoofConfig(
        spoof_type=SpoofType.DRIFT, injection_window=(10, 15), alpha=5.0, drift_dir=(0.0, 1.0)
    )
    run = apply_spoof(frames, cfg)
    for t in range(10):
        assert run.spoofed_frames[t] == frames[t]
    assert all(entry.t >= 10 for entry in run.spoof_log)


def test_drift_targets_subset():
    frames = clean_run(duration=30.0)
    cfg = SpoofConfig(
        spoof_type=SpoofType.DRIFT,
        injection_window=(0, 29),
        alpha=5.0,
        drift_dir=(1.0, 0.0),
        target_platform_ids=frozenset([1]),
    )
    run = apply_spoof(frames, cfg)
    for frame in run.spoofed_frames:
        for det in frame.detections:
            if det.label.startswith("spoof"):
                assert det.truth_id == 1


def test_drift_empty_target_set_is_noop():
    frames = clean_run(duration=20.0)
    cfg = SpoofConfig(
        spoof_type=SpoofType.DRIFT,
        injection_window=(0, 19),
        alpha=5.0,
        drift_dir=(1.0, 0.0),
        target_platform_ids=frozenset(),
    )
    run = apply_spoof(frames, cfg)
    assert run.spoofed_frames == tuple(frames)
    assert run.spoof_log == ()


# ghost


def test_ghost_zero_rate_identity():
    frame = frame_with([(0.0, 0.0)])
    cfg = SpoofConfig(
        spoof_type=SpoofType.GHOST, injection_window=(0, 10), ghost_rate=0.0, ghost_region=REGION
    )
    out = spoof_one(frame, cfg)
    assert len(out.detections) == len(frame.detections)


def test_ghost_poisson_rate():
    frames = [frame_with([(0.0, 0.0)], t=t) for t in range(1000)]
    cfg = SpoofConfig(
        spoof_type=SpoofType.GHOST, injection_window=(0, 999), ghost_rate=5.0, ghost_region=REGION
    )
    run = apply_spoof(frames, cfg)
    added = [len(out.detections) - 1 for out in run.spoofed_frames]
    mean = sum(added) / len(added)
    assert 4.6 <= mean <= 5.4


def test_ghost_label_contract():
    frame = frame_with([(0.0, 0.0)])
    cfg = SpoofConfig(
        spoof_type=SpoofType.GHOST, injection_window=(0, 10), ghost_rate=8.0, ghost_region=REGION
    )
    out = spoof_one(frame, cfg)
    for det in out.detections[len(frame.detections):]:
        assert det.label == "spoof:ghost"
        assert det.truth_id is None


def test_ghost_near_track_stays_in_annulus():
    frame = frame_with([(100.0, -40.0)])
    cfg = SpoofConfig(
        spoof_type=SpoofType.GHOST,
        injection_window=(0, 10),
        ghost_rate=20.0,
        ghost_mode="near_track",
        ghost_radius_m=20.0,
        ghost_inner_m=10.0,
    )
    anchor = position(frame.detections[0])
    out = spoof_one(frame, cfg)
    ghosts = out.detections[1:]
    assert len(ghosts) > 0
    for det in ghosts:
        r = float(np.linalg.norm(position(det) - anchor))
        assert 10.0 - 1e-9 <= r <= 20.0 + 1e-9


def test_ghost_offset_cloud_center():
    frame = frame_with([(0.0, 0.0)])
    cfg = SpoofConfig(
        spoof_type=SpoofType.GHOST,
        injection_window=(0, 10),
        ghost_rate=30.0,
        ghost_mode="near_track",
        ghost_radius_m=5.0,
        ghost_offset_m=50.0,
        ghost_offset_dir=(0.0, 1.0),
    )
    out = spoof_one(frame, cfg)
    ghosts = np.array([position(d) for d in out.detections[1:]])
    center = ghosts.mean(axis=0)
    assert abs(center[0]) < 5.0
    assert abs(center[1] - 50.0) < 5.0


def test_ghost_uniform_needs_region():
    frames = clean_run(duration=10.0)
    cfg = SpoofConfig(
        spoof_type=SpoofType.GHOST, injection_window=(0, 9), ghost_rate=1.0, ghost_mode="uniform"
    )
    with pytest.raises(ConfigError):
        apply_spoof(frames, cfg)


def test_ghost_near_track_empty_frame_skips():
    empty = DetectionFrame(t=0, detections=())
    cfg = SpoofConfig(
        spoof_type=SpoofType.GHOST,
        injection_window=(0, 10),
        ghost_rate=10.0,
        ghost_mode="near_track",
    )
    out = spoof_one(empty, cfg)
    assert len(out.detections) == 0


# mirror


def test_reflection_fixed_point():
    p = reflect_across_axis((100.0, 40.0), 100.0)
    np.testing.assert_allclose(p, [100.0, 40.0])


def test_mirror_hand_value():
    frame = frame_with([(30.0, 40.0)])
    cfg = SpoofConfig(spoof_type=SpoofType.MIRROR, injection_window=(0, 10), mirror_x0=100.0)
    out = spoof_one(frame, cfg)
    assert len(out.detections) == 2
    echo = out.detections[1]
    np.testing.assert_allclose(position(echo), [170.0, 40.0])
    assert echo.label == "spoof:mirror"
    assert echo.truth_id == 0
    # original retained untouched
    np.testing.assert_allclose(position(out.detections[0]), [30.0, 40.0])
    assert out.detections[0].label == "clean"


def test_mirror_involution_on_grid():
    rng = np.random.default_rng(11)
    # grid-aligned coordinates reflect exactly; see acceptance test for scale
    xs = rng.integers(-600 * 1024, 600 * 1024, 1000) / 1024.0
    x0s = rng.integers(-600 * 1024, 600 * 1024, 1000) / 1024.0
    for x, x0 in zip(xs, x0s):
        once = reflect_across_axis((x, 1.0), x0)
        twice = reflect_across_axis(once, x0)
        assert twice[0] == x


# apply_spoof plumbing


def test_apply_window_beyond_horizon_is_noop():
    frames = clean_run(duration=20.0)
    cfg = SpoofConfig(
        spoof_type=SpoofType.DRIFT, injection_window=(100, 200), alpha=3.0, drift_dir=(1.0, 0.0)
    )
    run = apply_spoof(frames, cfg)
    assert run.spoofed_frames == tuple(frames)
    assert run.spoof_log == ()


def test_apply_rejects_malformed_window():
    with pytest.raises(ConfigError):
        SpoofConfig(spoof_type=SpoofType.DRIFT, injection_window=(5, 2))
    with pytest.raises(ConfigError):
        SpoofConfig(spoof_type=SpoofType.DRIFT, injection_window=(-1, 2))


def test_apply_drift_count_matches_targets():
    frames = clean_run(duration=40.0)
    cfg = SpoofConfig(
        spoof_type=SpoofType.DRIFT, injection_window=(10, 30), alpha=2.0, drift_dir=(1.0, 0.0)
    )
    run = apply_spoof(frames, cfg)
    targeted = sum(
        1
        for frame in frames
        if 10 <= frame.t <= 30
        for det in frame.detections
        if det.label == "clean"
    )
    spoofed = sum(
        1
        for frame in run.spoofed_frames
        for det in frame.detections
        if det.label.startswith("spoof")
    )
    assert spoofed == targeted
    assert len(run.spoof_log) == targeted


def test_apply_drift_linear_in_time():
    frames = clean_run(duration=40.0)
    cfg = SpoofConfig(
        spoof_type=SpoofType.DRIFT, injection_window=(10, 30), alpha=2.0, drift_dir=(0.0, 1.0)
    )
    run = apply_spoof(frames, cfg)
    originals = {(e.t, e.detection_id): (e.orig_x, e.orig_y) for e in run.spoof_log}
    for frame in run.spoofed_frames:
        for det in frame.detections:
            if not det.label.startswith("spoof"):
                continue
            ox, oy = originals[(frame.t, det.detection_id)]
            offset = position(det) - np.array([ox, oy])
            t_rel = (frame.t - 10) * 1.0
            np.testing.assert_allclose(offset, [0.0, 2.0 * t_rel], atol=1e-9)


def test_apply_rejects_a_non_finite_position():
    # alpha at its bound passes the config check, and a step this long
    # carries the drift past the float range
    frame = frame_with([(10.0, 20.0)], t=1)
    cfg = SpoofConfig(
        spoof_type=SpoofType.DRIFT, injection_window=(0, 5), alpha=MAX_SPEED_MPS, dt_s=1e300
    )
    with pytest.raises(ConfigError, match="drift spoof puts a detection at a non-finite position"):
        spoof_one(frame, cfg)


def test_apply_never_mutates_clean_frames():
    frames = clean_run(duration=30.0)
    cfg = SpoofConfig(spoof_type=SpoofType.MIRROR, injection_window=(0, 29), mirror_x0=0.0)
    run = apply_spoof(frames, cfg)
    assert run.clean_frames is not run.spoofed_frames
    # the clean input, and the clean stream handed back, still equal a
    # fresh run of the same stream
    assert frames == clean_run(duration=30.0)
    assert run.clean_frames == tuple(frames)


def test_apply_log_reconstructs_originals():
    frames = clean_run(duration=30.0)
    cfg = SpoofConfig(spoof_type=SpoofType.MIRROR, injection_window=(5, 25), mirror_x0=50.0)
    run = apply_spoof(frames, cfg)
    assert len(run.spoof_log) > 0
    spoofed_by_key = {
        (f.t, d.detection_id): d
        for f in run.spoofed_frames
        for d in f.detections
        if d.label.startswith("spoof")
    }
    for entry in run.spoof_log:
        det = spoofed_by_key[(entry.t, entry.detection_id)]
        mirrored = reflect_across_axis((entry.orig_x, entry.orig_y), 50.0)
        np.testing.assert_allclose(position(det), mirrored)


def test_apply_clean_passthrough():
    frames = clean_run(duration=15.0)
    run = apply_spoof(frames, SpoofConfig(spoof_type=SpoofType.CLEAN))
    assert run.spoofed_frames == tuple(frames)
    assert run.spoof_log == ()


def test_spoofed_ids_do_not_collide():
    frames = clean_run(duration=30.0)
    cfg = SpoofConfig(
        spoof_type=SpoofType.GHOST, injection_window=(0, 29), ghost_rate=3.0, ghost_region=REGION
    )
    run = apply_spoof(frames, cfg)
    seen = set()
    for frame in run.spoofed_frames:
        for det in frame.detections:
            assert det.detection_id not in seen
            seen.add(det.detection_id)


def test_spoof_log_csv_round_trip(tmp_path):
    frames = clean_run(duration=30.0)
    cfg = SpoofConfig(
        spoof_type=SpoofType.DRIFT, injection_window=(5, 20), alpha=1.5, drift_dir=(1.0, 0.0)
    )
    run = apply_spoof(frames, cfg)
    path = tmp_path / "spoof_log.csv"
    write_spoof_log_csv(path, run.spoof_log)
    again = tuple(read_csv(path, SpoofLogEntry))
    assert again == run.spoof_log


def test_config_round_trip():
    cfg = SpoofConfig(
        spoof_type=SpoofType.GHOST,
        injection_window=(3, 9),
        seed=77,
        ghost_rate=4.0,
        ghost_mode="near_track",
        ghost_radius_m=8.0,
        ghost_inner_m=2.0,
        ghost_offset_m=15.0,
        ghost_offset_dir=(0.0, 1.0),
        target_platform_ids=frozenset([1, 2]),
    )
    assert SpoofConfig.from_dict(cfg.as_dict()) == cfg
    bad = cfg.as_dict()
    bad["mystery"] = 0
    with pytest.raises(ConfigError):
        SpoofConfig.from_dict(bad)


def test_config_validation():
    with pytest.raises(ConfigError):
        SpoofConfig(spoof_type=SpoofType.DRIFT, alpha=-1.0)
    with pytest.raises(ConfigError):
        SpoofConfig(spoof_type=SpoofType.DRIFT, alpha=1.0, drift_dir=(1.0, 1.0))
    with pytest.raises(ConfigError):
        SpoofConfig(spoof_type=SpoofType.GHOST, ghost_rate=-2.0)
    with pytest.raises(ConfigError):
        SpoofConfig(spoof_type=SpoofType.GHOST, ghost_inner_m=10.0, ghost_radius_m=5.0)
    with pytest.raises(ConfigError):
        SpoofConfig(spoof_type=SpoofType.GHOST, ghost_offset_m=5.0, ghost_offset_dir=(2.0, 0.0))
    # unit vector tolerance
    SpoofConfig(spoof_type=SpoofType.DRIFT, alpha=1.0, drift_dir=(math.sqrt(0.5), math.sqrt(0.5)))



# sha256 of spoofed.csv and spoof_log.csv for one campaign of each kind
# on the demo scenario and sensor, seed 0: any change to a spoofed
# position, id, label or log row, or to their order, shows here
PINNED_STREAMS = {
    "drift-subset": (
        dict(spoof_type=SpoofType.DRIFT, alpha=3.0, drift_dir=(0.6, 0.8),
             target_platform_ids=frozenset([0, 2])),
        "8efb189602732b84213e22cf4d37d1560e3d5d2ac5163030b35f178325dadb5c",
        "0046f38eb8a5c09bc62f8345169fd01ab60818549a9b908f077d9adcc481389c",
    ),
    "mirror-subset": (
        dict(spoof_type=SpoofType.MIRROR, mirror_x0=50.0, target_platform_ids=frozenset([1, 3])),
        "6ba17d2feb11716cc49b85d9bd6a233d28d3f58c34c1f35ac8bc9ac89fb72e76",
        "35245bcf72f3003f5c04ad70c5e474b7dc98f48392c49e8275c2038ac062c566",
    ),
    "ghost-near-track": (
        dict(spoof_type=SpoofType.GHOST, ghost_rate=6.0, ghost_mode="near_track",
             ghost_radius_m=8.0, ghost_inner_m=2.0, ghost_offset_m=15.0,
             ghost_offset_dir=(0.0, 1.0)),
        "d1663c040e57e82ca5d3cdf350fff82edb57c5d6922547e46ffb126d5b96b808",
        "c7ed0fa2414c6e1fc7007b8a47a0f1477ffb79fe9bbaa86317f6e8bca337fc9a",
    ),
    "ghost-uniform": (
        dict(spoof_type=SpoofType.GHOST, ghost_rate=3.0, ghost_mode="uniform",
             ghost_region=REGION),
        "4b196c415669a713421582e59255159c402c4e18c18d4c20a2ef96b5f8b2cd8f",
        "73ab015c422ddafca4cf47f87bf6c8e379f8cd1153472042b8f04b3c4cdbd693",
    ),
}


@pytest.mark.parametrize("case", sorted(PINNED_STREAMS))
def test_spoofed_streams_pinned(case, tmp_path):
    demo = load_benchmark_config(DEMO_CONFIG)
    frames = generate_clean_run(build_scenario(demo.scenario), demo.sensor, seed=0)
    fields, spoofed_digest, log_digest = PINNED_STREAMS[case]
    run = apply_spoof(frames, SpoofConfig(injection_window=(20, 79), seed=5, **fields))
    write_detection_csv(tmp_path / "spoofed.csv", run.spoofed_frames, case)
    write_spoof_log_csv(tmp_path / "spoof_log.csv", run.spoof_log)
    for name, digest in (("spoofed.csv", spoofed_digest), ("spoof_log.csv", log_digest)):
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name
