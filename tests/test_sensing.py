import math

import numpy as np
import pytest

from spoofbench.errors import ConfigError
from spoofbench.geometry import Region
from spoofbench.scenario import PlatformSpec, ScenarioConfig, build_scenario
from spoofbench.sensing import (
    DETECTION_CSV_HEADER,
    MAX_RATE_PER_FRAME,
    Detection,
    DetectionRow,
    SensorConfig,
    generate_clean_run,
    read_detection_csv,
    write_detection_csv,
)
from spoofbench.spoofing import SpoofConfig, SpoofType

REGION = Region(-600.0, 600.0, -600.0, 600.0)


def stationary_scenario(n_platforms=4, duration=100.0):
    platforms = tuple(
        PlatformSpec(
            platform_id=i,
            class_id=0,
            waypoints=((0.0, (i * 100.0, 50.0)), (duration, (i * 100.0, 50.0))),
            stationary=True,
        )
        for i in range(n_platforms)
    )
    cfg = ScenarioConfig(
        duration_s=duration, dt_s=1.0, platforms=platforms, seed=0, region=REGION
    )
    return build_scenario(cfg)


def test_zero_noise_limit():
    truth = stationary_scenario(2)
    sensor = SensorConfig(p_detect=1.0, noise_sigma_m=1e-9, clutter_rate=0.0, fov=REGION)
    frames = generate_clean_run(truth, sensor, seed=1)
    worst = 0.0
    for frame in frames:
        for det in frame.detections:
            true_pos = truth.positions[det.truth_id][frame.t]
            worst = max(worst, float(np.linalg.norm(det.z - true_pos)))
    assert worst < 1e-6


def test_degenerate_sensor_empty_frames():
    truth = stationary_scenario(2, duration=20.0)
    sensor = SensorConfig(p_detect=0.0, noise_sigma_m=5.0, clutter_rate=0.0, fov=REGION)
    frames = generate_clean_run(truth, sensor, seed=1)
    assert all(len(frame.detections) == 0 for frame in frames)


def test_detection_count_binomial():
    # 4 platforms x 1000 frames at p=0.9: mean 3600, sigma = sqrt(360)
    truth = stationary_scenario(4, duration=1000.0)
    sensor = SensorConfig(p_detect=0.9, noise_sigma_m=5.0, clutter_rate=0.0, fov=REGION)
    frames = generate_clean_run(truth, sensor, seed=3)
    total = sum(len(f.detections) for f in frames)
    sigma = math.sqrt(4000 * 0.9 * 0.1)
    assert abs(total - 3600) <= 3 * sigma


def test_clutter_poisson_and_inside_fov():
    truth = stationary_scenario(1, duration=1000.0)
    fov = Region(-100.0, 100.0, -50.0, 50.0)
    sensor = SensorConfig(p_detect=0.0, noise_sigma_m=5.0, clutter_rate=2.0, fov=fov)
    frames = generate_clean_run(truth, sensor, seed=5)
    counts = [len(f.detections) for f in frames]
    mean = sum(counts) / len(counts)
    # 3 sigma band for the per-frame Poisson mean over 1000 frames
    assert abs(mean - 2.0) <= 3 * math.sqrt(2.0 / 1000)
    for frame in frames:
        for det in frame.detections:
            assert det.label == "clutter"
            assert det.truth_id is None
            assert fov.contains(det.z)


def test_noise_covariance_matches_R():
    truth = stationary_scenario(1, duration=2000.0)
    sensor = SensorConfig(p_detect=1.0, noise_sigma_m=5.0, clutter_rate=0.0, fov=REGION)
    frames = generate_clean_run(truth, sensor, seed=7)
    errs = np.array(
        [det.z - truth.positions[0][f.t] for f in frames for det in f.detections]
    )
    emp = errs.T @ errs / len(errs)
    assert abs(emp[0, 0] - 25.0) < 2.5
    assert abs(emp[1, 1] - 25.0) < 2.5
    assert abs(emp[0, 1]) < 2.5
    for frame in frames:
        for det in frame.detections:
            np.testing.assert_allclose(det.R, 25.0 * np.eye(2))


def test_replay_bit_exact():
    truth = stationary_scenario(3, duration=50.0)
    sensor = SensorConfig()
    a = generate_clean_run(truth, sensor, seed=11)
    b = generate_clean_run(truth, sensor, seed=11)
    assert len(a) == len(b)
    for fa, fb in zip(a, b):
        assert len(fa.detections) == len(fb.detections)
        for da, db in zip(fa.detections, fb.detections):
            assert da.detection_id == db.detection_id
            assert (da.z == db.z).all()
            assert (da.label, da.truth_id) == (db.label, db.truth_id)


def test_truth_ids_exist():
    truth = stationary_scenario(3, duration=50.0)
    frames = generate_clean_run(truth, SensorConfig(), seed=13)
    for frame in frames:
        for det in frame.detections:
            if det.label == "clean":
                assert det.truth_id in truth.platform_ids


def test_detection_ids_unique_and_sorted():
    truth = stationary_scenario(3, duration=50.0)
    frames = generate_clean_run(truth, SensorConfig(), seed=17)
    seen = set()
    for frame in frames:
        ids = [d.detection_id for d in frame.detections]
        assert ids == sorted(ids)
        for i in ids:
            assert i not in seen
            seen.add(i)


def test_csv_round_trip(tmp_path):
    truth = stationary_scenario(2, duration=30.0)
    frames = generate_clean_run(truth, SensorConfig(), seed=19)
    path = tmp_path / "detections.csv"
    write_detection_csv(path, frames, "run-x")
    rows = read_detection_csv(path)
    detections = [d for frame in frames for d in frame.detections]
    assert len(rows) == len(detections) > 0
    for row, det in zip(rows, detections):
        assert isinstance(row, DetectionRow)
        assert row.run_id == "run-x"
        assert (row.t, row.detection_id) == (det.t, det.detection_id)
        # repr round-trip keeps floats exact
        assert (row.x, row.y) == tuple(det.z)
        assert (row.r_xx, row.r_xy, row.r_yy) == (det.R[0, 0], det.R[0, 1], det.R[1, 1])
        assert det.R[1, 0] == det.R[0, 1]
        assert (row.label, row.truth_id) == (det.label, det.truth_id)


def test_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("nope,not,the,header\n")
    with pytest.raises(ConfigError):
        read_detection_csv(path)


def test_label_encoding():
    # the label is the CSV cell as is; a clean one's origin names its platform
    def det(label, truth_id=None):
        return Detection(t=0, detection_id=0, z=np.zeros(2), R=np.eye(2), label=label,
                         truth_id=truth_id)

    assert det("clean", 4).origin_key() == "platform:4"
    assert det("clutter").origin_key() == "clutter"
    assert det("spoof:ghost").origin_key() == "spoof:ghost"
    assert det("spoof:mirror", 4).origin_key() == "spoof:mirror"


def test_sensor_config_validation():
    with pytest.raises(ConfigError):
        SensorConfig(p_detect=1.5)
    with pytest.raises(ConfigError):
        SensorConfig(noise_sigma_m=0.0)
    with pytest.raises(ConfigError):
        SensorConfig(clutter_rate=-1.0)
    d = SensorConfig().as_dict()
    assert SensorConfig.from_dict(d) == SensorConfig()
    d["bogus"] = True
    with pytest.raises(ConfigError):
        SensorConfig.from_dict(d)


def test_rates_are_bounded_per_frame():
    SensorConfig(clutter_rate=MAX_RATE_PER_FRAME)
    SpoofConfig(spoof_type=SpoofType.GHOST, ghost_rate=MAX_RATE_PER_FRAME)
    above = math.nextafter(MAX_RATE_PER_FRAME, math.inf)
    with pytest.raises(ConfigError, match="clutter_rate"):
        SensorConfig(clutter_rate=above)
    with pytest.raises(ConfigError, match="ghost_rate"):
        SpoofConfig(spoof_type=SpoofType.GHOST, ghost_rate=above)
    # a rate is bounded only where it is drawn from
    SpoofConfig(spoof_type=SpoofType.DRIFT, ghost_rate=above)


def test_header_shape():
    assert DETECTION_CSV_HEADER == [
        "run_id", "t", "detection_id", "x", "y", "r_xx", "r_xy", "r_yy", "label", "truth_id",
    ]
