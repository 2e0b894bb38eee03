"""Spoof injection: drift, ghost, and mirror attacks on detection runs.

The clean stream is never mutated. Drift moves a targeted platform's
own detection (same detection_id, relabeled); mirror appends a
reflected echo and keeps the original; ghost appends detections with no
platform origin. Every spoofed detection is recorded in a spoof log
that preserves the original position where one exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .codec import Record, bounded, write_csv
from .errors import ConfigError
from .geometry import MAX_COORDINATE_M, MAX_SPEED_MPS, Region, coordinate
from .sensing import LABEL_CLEAN, MAX_RATE_PER_FRAME, MAX_SIGMA_M, Detection, DetectionFrame
from .streams import TAG_SPOOF, substream

GHOST_MODE_UNIFORM = "uniform"
GHOST_MODE_NEAR_TRACK = "near_track"


class SpoofType(str, Enum):
    DRIFT = "drift"
    GHOST = "ghost"
    MIRROR = "mirror"
    # pass-through pseudo type so benchmark grids can include an
    # unspoofed cell through the same code path
    CLEAN = "clean"

    @property
    def label(self) -> str:
        """The label of the detections a campaign of this type injects."""
        return f"spoof:{self.value}"


@dataclass(frozen=True)
class SpoofConfig(Record):
    """Parameters of one spoof campaign.

    target_platform_ids=None targets every platform; an explicit empty
    set targets none. dt_s converts timestep offsets into the seconds
    used by the drift law.
    """

    spoof_type: SpoofType
    injection_window: tuple[int, int] = (0, 0)
    seed: int = 0
    alpha: float = bounded(0.0, low=0.0, high=MAX_SPEED_MPS)
    drift_dir: tuple[float, float] = (1.0, 0.0)
    mirror_x0: float = coordinate(0.0)
    ghost_rate: float = bounded(0.0, low=0.0, high=MAX_RATE_PER_FRAME)
    ghost_mode: str = GHOST_MODE_UNIFORM
    ghost_region: Optional[Region] = None
    ghost_radius_m: float = bounded(50.0, low=0.0, high=MAX_COORDINATE_M, open_low=True)
    # inner radius of the near-track annulus; 0 degenerates to a disc
    ghost_inner_m: float = 0.0
    # displacement of the annulus center from the anchoring detection.
    # Symmetric ghost mass cancels under soft association; an offset
    # cloud is what actually drags a beta-weighted tracker off target
    ghost_offset_m: float = bounded(0.0, low=0.0, high=MAX_COORDINATE_M)
    ghost_offset_dir: tuple[float, float] = (1.0, 0.0)
    ghost_sigma_m: float = bounded(5.0, low=0.0, high=MAX_SIGMA_M, open_low=True)
    target_platform_ids: Optional[frozenset[int]] = None
    dt_s: float = bounded(1.0, low=0.0, open_low=True)

    def __post_init__(self) -> None:
        super().__post_init__()
        t_start, t_end = self.injection_window
        if t_start < 0 or t_start > t_end:
            raise ConfigError(f"malformed injection window [{t_start}, {t_end}]")
        # like the bounds, these rules hold whatever the spoof type
        for name in ("drift_dir", "ghost_offset_dir"):
            norm = math.hypot(*getattr(self, name))
            if not abs(norm - 1.0) <= 1e-9:
                raise ConfigError(f"{name} must be a unit vector, |v|={norm}")
        if self.ghost_mode not in (GHOST_MODE_UNIFORM, GHOST_MODE_NEAR_TRACK):
            raise ConfigError(f"unknown ghost_mode {self.ghost_mode!r}")
        if not 0.0 <= self.ghost_inner_m < self.ghost_radius_m:
            raise ConfigError(
                f"ghost_inner_m must lie in [0, ghost_radius_m); got "
                f"{self.ghost_inner_m} vs {self.ghost_radius_m}"
            )
        # only ghosts draw from a region, and only a ghost entry is given one by default
        if self.spoof_type is SpoofType.GHOST and self.ghost_mode == GHOST_MODE_UNIFORM:
            if self.ghost_region is None:
                raise ConfigError("uniform ghost mode requires ghost_region")

    def targets(self, truth_id: Optional[int]) -> bool:
        if truth_id is None:
            return False
        if self.target_platform_ids is None:
            return True
        return truth_id in self.target_platform_ids

    def in_window(self, t: int) -> bool:
        return self.injection_window[0] <= t <= self.injection_window[1]


class SpoofLogEntry(NamedTuple):
    """One row of spoof_log.csv: a spoofed detection and, where it came
    from a real one, that detection's original position."""

    t: int
    detection_id: int
    spoof_type: str
    orig_x: Optional[float]
    orig_y: Optional[float]


@dataclass(frozen=True)
class SpoofedRun:
    """Clean and spoofed streams of one run, kept separate and labeled."""

    clean_frames: tuple[DetectionFrame, ...]
    spoofed_frames: tuple[DetectionFrame, ...]
    spoof_log: tuple[SpoofLogEntry, ...]
    config: SpoofConfig


def reflect_across_axis(position, x0: float) -> tuple[float, float]:
    """Reflect (x, y) across the vertical axis x = x0: (2*x0 - x, y)."""
    x, y = position
    return (2.0 * x0 - x, y)


def _ghost_positions(
    frame: DetectionFrame, cfg: SpoofConfig, rng: np.random.Generator
) -> list[tuple[float, float]]:
    """Positions of the frame's Poisson(ghost_rate) ghosts.

    Placement is uniform over ghost_region, or, in near_track mode,
    uniform in the annulus [ghost_inner_m, ghost_radius_m] around a
    randomly chosen clean detection of the frame, shifted by
    ghost_offset_m along ghost_offset_dir.
    """
    count = int(rng.poisson(cfg.ghost_rate))
    off_x, off_y = (cfg.ghost_offset_m * u for u in cfg.ghost_offset_dir)
    centers = [(d.x + off_x, d.y + off_y) for d in frame.detections if d.label == LABEL_CLEAN]
    r2_lo = cfg.ghost_inner_m * cfg.ghost_inner_m
    r2_hi = cfg.ghost_radius_m * cfg.ghost_radius_m
    region = cfg.ghost_region
    positions: list[tuple[float, float]] = []
    for _ in range(count):
        if cfg.ghost_mode == GHOST_MODE_NEAR_TRACK and centers:
            x, y = centers[int(rng.integers(len(centers)))]
            radius = math.sqrt(r2_lo + rng.random() * (r2_hi - r2_lo))
            theta = rng.uniform(0.0, 2.0 * math.pi)
            positions.append((x + radius * math.cos(theta), y + radius * math.sin(theta)))
        elif region is not None:
            # the draws of region.sample(rng, 1), as floats
            x = rng.uniform(region.x_min, region.x_max)
            positions.append((x, rng.uniform(region.y_min, region.y_max)))
        # near_track with nothing to anchor on and no fallback region
        # skips the draw rather than invent a position
    return positions


def apply_spoof(clean_run: Sequence[DetectionFrame], cfg: SpoofConfig) -> SpoofedRun:
    """Apply one spoof campaign over its injection window.

    In each frame of the window the spoof type names its spoofed
    detections as (source, position) pairs, the source being the clean
    detection a spoofed one is made from, or None for a ghost; this loop
    alone gives them ids, labels and log rows and builds the frame.
    Deterministic given (clean_run, cfg): ghost draws come from streams
    keyed by (cfg.seed, timestep). Frames outside the window pass
    through unchanged; a window starting beyond the final frame is a
    no-op. The clean input is returned untouched alongside the spoofed
    stream. A spoofed position that overflows to a non-finite float
    raises ConfigError; cfg has passed every other spoof rule when built.
    """
    clean_frames = tuple(clean_run)
    if cfg.spoof_type is SpoofType.CLEAN:
        return SpoofedRun(clean_frames, clean_frames, (), cfg)
    kind = cfg.spoof_type.value
    label = cfg.spoof_type.label
    ghost_var = cfg.ghost_sigma_m * cfg.ghost_sigma_m
    next_id = 1 + max((d.detection_id for f in clean_frames for d in f.detections), default=-1)
    spoofed: list[DetectionFrame] = []
    log: list[SpoofLogEntry] = []
    for frame in clean_frames:
        if not cfg.in_window(frame.t):
            spoofed.append(frame)
            continue
        if cfg.spoof_type is SpoofType.GHOST:
            rng = substream(cfg.seed, TAG_SPOOF, frame.t)
            named = [(None, z) for z in _ghost_positions(frame, cfg, rng)]
        else:
            targeted = [
                d for d in frame.detections if d.label == LABEL_CLEAN and cfg.targets(d.truth_id)
            ]
            if cfg.spoof_type is SpoofType.DRIFT:
                t_rel = (frame.t - cfg.injection_window[0]) * cfg.dt_s
                off_x, off_y = (cfg.alpha * t_rel * u for u in cfg.drift_dir)
                named = [(d, (d.x + off_x, d.y + off_y)) for d in targeted]
            else:
                named = [(d, reflect_across_axis((d.x, d.y), cfg.mirror_x0)) for d in targeted]
        # by id, so a drifted detection takes its source's place
        detections = {d.detection_id: d for d in frame.detections}
        for source, (x, y) in named:
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ConfigError(
                    f"{kind} spoof puts a detection at a non-finite position at step {frame.t}"
                )
            if cfg.spoof_type is SpoofType.DRIFT:
                det_id = source.detection_id
            else:
                det_id, next_id = next_id, next_id + 1
            if source is None:
                det = Detection(frame.t, det_id, x, y, ghost_var, 0.0, ghost_var, label)
                orig = (None, None)
            else:
                det = source._replace(detection_id=det_id, x=x, y=y, label=label)
                orig = (source.x, source.y)
            detections[det_id] = det
            log.append(SpoofLogEntry(frame.t, det_id, kind, *orig))
        spoofed.append(DetectionFrame(frame.t, tuple(detections.values())) if named else frame)
    return SpoofedRun(clean_frames, tuple(spoofed), tuple(log), cfg)


def write_spoof_log_csv(path, log: Sequence[SpoofLogEntry]) -> None:
    write_csv(path, SpoofLogEntry._fields, log)
