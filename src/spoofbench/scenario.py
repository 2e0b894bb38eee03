"""Deterministic ground-truth scenarios on a fixed timestep grid.

Platforms follow piecewise constant-velocity legs between waypoints.
Building a scenario uses no randomness: the same config always yields a
bit-identical trajectory table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codec import Record, load_json
from .errors import ConfigError
from .geometry import Region

DT_MIN_S = 0.1
DT_MAX_S = 5.0

# bound on a scenario's steps: a hundred times the shipped 100-step
# scenarios, and few enough that one run's arrays and snapshot rows fit
# in memory (the dense_ghost benchmark config stretched to 10,000 steps,
# about 14 detections a frame, runs one gnn cell at a 460 MB peak)
MAX_STEPS = 10_000


@dataclass(frozen=True)
class PlatformSpec(Record):
    """One platform's identity and waypoint schedule.

    Waypoints are (time_s, (x_m, y_m)) pairs with strictly increasing
    times, the first at t=0 and the last at or beyond the scenario
    duration. A stationary platform must repeat one position.
    """

    platform_id: int
    waypoints: tuple[tuple[float, tuple[float, float]], ...]
    class_id: int = 0
    stationary: bool = False

    def validate(self, duration_s: float, region: Region) -> None:
        if len(self.waypoints) < 2:
            raise ConfigError(
                f"platform {self.platform_id}: need at least 2 waypoints, "
                f"got {len(self.waypoints)}"
            )
        times = [t for t, _ in self.waypoints]
        if times[0] != 0.0:
            raise ConfigError(
                f"platform {self.platform_id}: first waypoint must be at t=0, got {times[0]}"
            )
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ConfigError(
                f"platform {self.platform_id}: waypoint times must be strictly increasing"
            )
        if times[-1] < duration_s:
            raise ConfigError(
                f"platform {self.platform_id}: last waypoint at t={times[-1]} "
                f"does not cover duration {duration_s}"
            )
        positions = [p for _, p in self.waypoints]
        if self.stationary and any(p != positions[0] for p in positions):
            raise ConfigError(
                f"platform {self.platform_id}: stationary platform with moving waypoints"
            )
        for t, p in self.waypoints:
            if not region.contains(p):
                raise ConfigError(
                    f"platform {self.platform_id}: waypoint at t={t} outside region"
                )


@dataclass(frozen=True, kw_only=True)
class ScenarioConfig(Record):
    duration_s: float
    dt_s: float = 1.0
    seed: int = 0
    region: Region
    platforms: tuple[PlatformSpec, ...]

    def __post_init__(self) -> None:
        if not (DT_MIN_S <= self.dt_s <= DT_MAX_S):
            raise ConfigError(f"dt_s {self.dt_s} outside [{DT_MIN_S}, {DT_MAX_S}]")
        if self.duration_s < self.dt_s:
            raise ConfigError("duration_s must be at least dt_s")
        # before n_steps, whose int() an infinite ratio would overflow
        if self.duration_s > MAX_STEPS * self.dt_s:
            raise ConfigError(
                f"duration_s {self.duration_s} is more than {MAX_STEPS} steps of dt_s {self.dt_s}"
            )
        if self.n_steps < 2:
            raise ConfigError("scenario needs at least 2 timesteps")
        if not self.platforms:
            raise ConfigError("scenario needs at least one platform")
        ids = [p.platform_id for p in self.platforms]
        if len(set(ids)) != len(ids):
            raise ConfigError(f"duplicate platform ids: {ids}")
        for p in self.platforms:
            p.validate(self.duration_s, self.region)

    @property
    def n_steps(self) -> int:
        # floor with a small epsilon so duration/dt ratios like 100/0.1
        # do not lose a step to float division
        return int(math.floor(self.duration_s / self.dt_s + 1e-9))


@dataclass(frozen=True)
class GroundTruth:
    """Per-platform trajectories sampled on the scenario clock.

    positions[pid] and velocities[pid] are (T, 2) arrays aligned with
    times_s.
    """

    times_s: np.ndarray
    dt_s: float
    platform_ids: tuple[int, ...]
    positions: dict[int, np.ndarray]
    velocities: dict[int, np.ndarray]

    @property
    def n_steps(self) -> int:
        return len(self.times_s)


def build_scenario(config: ScenarioConfig) -> GroundTruth:
    """Sample every platform's piecewise constant-velocity trajectory.

    Velocity is right-continuous at waypoint junctions: at a junction
    time the next leg's slope applies.

    Parameters
    ----------
    config : ScenarioConfig
        Validated scenario description.

    Returns
    -------
    GroundTruth
        T states per platform on the grid t_k = k * dt_s.
    """
    T = config.n_steps
    times = np.arange(T, dtype=float) * config.dt_s
    positions: dict[int, np.ndarray] = {}
    velocities: dict[int, np.ndarray] = {}
    for spec in config.platforms:
        wp_t = np.array([t for t, _ in spec.waypoints], dtype=float)
        wp_p = np.array([p for _, p in spec.waypoints], dtype=float)
        # leg index for each grid time; side="right" gives the later leg
        # at an exact junction (right-continuous velocity)
        leg = np.searchsorted(wp_t, times, side="right") - 1
        leg = np.clip(leg, 0, len(wp_t) - 2)
        leg_dt = (wp_t[leg + 1] - wp_t[leg])[:, None]
        vel = (wp_p[leg + 1] - wp_p[leg]) / leg_dt
        pos = wp_p[leg] + vel * (times - wp_t[leg])[:, None]
        positions[spec.platform_id] = pos
        velocities[spec.platform_id] = vel
    return GroundTruth(
        times_s=times,
        dt_s=config.dt_s,
        platform_ids=tuple(p.platform_id for p in config.platforms),
        positions=positions,
        velocities=velocities,
    )


def load_scenario_config(path) -> ScenarioConfig:
    """Read a scenario config from a JSON file; unknown keys are rejected."""
    return ScenarioConfig.from_dict(load_json(path))


def default_scenario_config(seed: int = 0) -> ScenarioConfig:
    """Stock scenario: three crossing movers plus one stationary platform.

    100 s at 1 Hz over a 1200 m square centered on the origin, with
    lateral separations large enough that tracks never contend for the
    same detections under nominal sensor noise.
    """
    region = Region(-600.0, 600.0, -600.0, 600.0)
    platforms = (
        PlatformSpec(
            platform_id=0,
            class_id=1,
            waypoints=((0.0, (-600.0, -400.0)), (100.0, (600.0, -400.0))),
        ),
        PlatformSpec(
            platform_id=1,
            class_id=1,
            waypoints=((0.0, (-600.0, 0.0)), (100.0, (600.0, 0.0))),
        ),
        PlatformSpec(
            platform_id=2,
            class_id=2,
            waypoints=((0.0, (600.0, 400.0)), (100.0, (-600.0, 400.0))),
        ),
        PlatformSpec(
            platform_id=3,
            class_id=3,
            stationary=True,
            waypoints=((0.0, (150.0, 200.0)), (100.0, (150.0, 200.0))),
        ),
    )
    return ScenarioConfig(
        duration_s=100.0, dt_s=1.0, platforms=platforms, seed=seed, region=region
    )
