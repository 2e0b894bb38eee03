import json

import numpy as np
import pytest

from spoofbench.errors import ConfigError
from spoofbench.geometry import Region
from spoofbench.scenario import (
    PlatformSpec,
    ScenarioConfig,
    build_scenario,
    default_scenario_config,
    load_scenario_config,
)

WIDE = Region(-1000.0, 1000.0, -1000.0, 1000.0)


def single(platform, duration=10.0, dt=1.0):
    return ScenarioConfig(
        duration_s=duration, dt_s=dt, platforms=(platform,), seed=0, region=WIDE
    )


def test_stationary_platform():
    p = PlatformSpec(
        platform_id=0,
        class_id=0,
        waypoints=((0.0, (100.0, 200.0)), (10.0, (100.0, 200.0))),
        stationary=True,
    )
    truth = build_scenario(single(p))
    assert truth.n_steps == 10
    assert np.allclose(truth.positions[0], [100.0, 200.0])
    assert np.allclose(truth.velocities[0], 0.0)


def test_constant_velocity_midpoint():
    p = PlatformSpec(platform_id=0, class_id=0, waypoints=((0.0, (0.0, 0.0)), (10.0, (100.0, 0.0))))
    truth = build_scenario(single(p))
    np.testing.assert_allclose(truth.positions[0][5], [50.0, 0.0])
    np.testing.assert_allclose(truth.velocities[0][5], [10.0, 0.0])


def test_two_leg_interpolation():
    # second leg: from (50,0) at t=5 to (50,100) at t=10
    p = PlatformSpec(
        platform_id=0,
        class_id=0,
        waypoints=((0.0, (0.0, 0.0)), (5.0, (50.0, 0.0)), (10.0, (50.0, 100.0))),
    )
    truth = build_scenario(single(p))
    np.testing.assert_allclose(truth.positions[0][7], [50.0, 40.0])
    np.testing.assert_allclose(truth.velocities[0][7], [0.0, 20.0])


def test_leg_continuity():
    cfg = default_scenario_config()
    truth = build_scenario(cfg)
    for pid in truth.platform_ids:
        pos = truth.positions[pid]
        vel = truth.velocities[pid]
        for k in range(truth.n_steps - 1):
            step = pos[k + 1] - pos[k]
            # consecutive steps on one leg advance by v*dt; junction steps
            # use the leg the earlier timestep belongs to
            if np.allclose(vel[k], vel[k + 1]):
                np.testing.assert_allclose(step, vel[k] * cfg.dt_s, atol=1e-9)


def test_build_deterministic():
    cfg = default_scenario_config()
    a = build_scenario(cfg)
    b = build_scenario(cfg)
    for pid in a.platform_ids:
        assert (a.positions[pid] == b.positions[pid]).all()
        assert (a.velocities[pid] == b.velocities[pid]).all()


def test_rejects_non_monotone_waypoints():
    with pytest.raises(ConfigError):
        PlatformSpec(
            platform_id=0, class_id=0, waypoints=((0.0, (0.0, 0.0)), (5.0, (1.0, 0.0)), (5.0, (2.0, 0.0)))
        ).validate(10.0, WIDE)


def test_rejects_waypoints_not_from_zero():
    with pytest.raises(ConfigError):
        PlatformSpec(platform_id=0, class_id=0, waypoints=((1.0, (0.0, 0.0)), (10.0, (1.0, 0.0)))).validate(
            10.0, WIDE
        )


def test_rejects_waypoints_short_of_duration():
    with pytest.raises(ConfigError):
        PlatformSpec(platform_id=0, class_id=0, waypoints=((0.0, (0.0, 0.0)), (9.0, (1.0, 0.0)))).validate(
            10.0, WIDE
        )


def test_rejects_moving_stationary_platform():
    with pytest.raises(ConfigError):
        PlatformSpec(
            platform_id=0,
            class_id=0,
            waypoints=((0.0, (0.0, 0.0)), (10.0, (5.0, 0.0))),
            stationary=True,
        ).validate(10.0, WIDE)


def test_rejects_zero_platforms():
    with pytest.raises(ConfigError):
        ScenarioConfig(duration_s=10.0, dt_s=1.0, platforms=(), seed=0, region=WIDE)


def test_rejects_duplicate_ids():
    p = PlatformSpec(platform_id=3, class_id=0, waypoints=((0.0, (0.0, 0.0)), (10.0, (1.0, 0.0))))
    with pytest.raises(ConfigError):
        ScenarioConfig(duration_s=10.0, dt_s=1.0, platforms=(p, p), seed=0, region=WIDE)


def test_rejects_dt_out_of_range():
    p = PlatformSpec(platform_id=0, class_id=0, waypoints=((0.0, (0.0, 0.0)), (10.0, (1.0, 0.0))))
    for dt in (0.05, 5.5, 0.0, -1.0):
        with pytest.raises(ConfigError):
            ScenarioConfig(duration_s=10.0, dt_s=dt, platforms=(p,), seed=0, region=WIDE)


def test_n_steps_needs_two():
    p = PlatformSpec(platform_id=0, class_id=0, waypoints=((0.0, (0.0, 0.0)), (10.0, (1.0, 0.0))))
    with pytest.raises(ConfigError):
        ScenarioConfig(duration_s=1.0, dt_s=1.0, platforms=(p,), seed=0, region=WIDE)


def test_config_round_trip(tmp_path):
    cfg = default_scenario_config()
    again = ScenarioConfig.from_dict(cfg.as_dict())
    assert again == cfg
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg.as_dict()))
    assert load_scenario_config(path) == cfg


def test_config_from_dict_strict():
    d = default_scenario_config().as_dict()
    d["surprise"] = 1
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict(d)


def test_load_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_scenario_config(path)


def test_default_scenario_shape():
    cfg = default_scenario_config()
    truth = build_scenario(cfg)
    assert truth.n_steps == 100
    assert len(truth.platform_ids) == 4
    movers = [p for p in cfg.platforms if not p.stationary]
    assert len(movers) == 3
