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

from .codec import Record, read_csv, write_csv
from .errors import ConfigError
from .geometry import Region
from .sensing import LABEL_CLEAN, MAX_RATE_PER_FRAME, Detection, DetectionFrame
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
    alpha: float = 0.0
    drift_dir: tuple[float, float] = (1.0, 0.0)
    mirror_x0: float = 0.0
    ghost_rate: float = 0.0
    ghost_mode: str = GHOST_MODE_UNIFORM
    ghost_region: Optional[Region] = None
    ghost_radius_m: float = 50.0
    # inner radius of the near-track annulus; 0 degenerates to a disc
    ghost_inner_m: float = 0.0
    # displacement of the annulus center from the anchoring detection.
    # Symmetric ghost mass cancels under soft association; an offset
    # cloud is what actually drags a beta-weighted tracker off target
    ghost_offset_m: float = 0.0
    ghost_offset_dir: tuple[float, float] = (1.0, 0.0)
    ghost_sigma_m: float = 5.0
    target_platform_ids: Optional[frozenset[int]] = None
    dt_s: float = 1.0

    def __post_init__(self) -> None:
        t_start, t_end = self.injection_window
        if t_start < 0 or t_start > t_end:
            raise ConfigError(f"malformed injection window [{t_start}, {t_end}]")
        if self.spoof_type is SpoofType.DRIFT:
            if self.alpha < 0.0:
                raise ConfigError("drift rate alpha must be non-negative")
            norm = math.hypot(*self.drift_dir)
            if abs(norm - 1.0) > 1e-9:
                raise ConfigError(f"drift_dir must be a unit vector, |v|={norm}")
        if self.spoof_type is SpoofType.GHOST:
            if not 0.0 <= self.ghost_rate <= MAX_RATE_PER_FRAME:
                raise ConfigError(
                    f"ghost_rate {self.ghost_rate} outside [0, {MAX_RATE_PER_FRAME:g}]"
                )
            if self.ghost_mode not in (GHOST_MODE_UNIFORM, GHOST_MODE_NEAR_TRACK):
                raise ConfigError(f"unknown ghost_mode {self.ghost_mode!r}")
            if self.ghost_sigma_m <= 0.0:
                raise ConfigError("ghost_sigma_m must be positive")
            if self.ghost_radius_m <= 0.0:
                raise ConfigError("ghost_radius_m must be positive")
            if not 0.0 <= self.ghost_inner_m < self.ghost_radius_m:
                raise ConfigError(
                    f"ghost_inner_m must lie in [0, ghost_radius_m); got "
                    f"{self.ghost_inner_m} vs {self.ghost_radius_m}"
                )
            if self.ghost_offset_m < 0.0:
                raise ConfigError("ghost_offset_m must be non-negative")
            if self.ghost_offset_m > 0.0:
                norm = math.hypot(*self.ghost_offset_dir)
                if abs(norm - 1.0) > 1e-9:
                    raise ConfigError(
                        f"ghost_offset_dir must be a unit vector, |v|={norm}"
                    )
        if self.dt_s <= 0.0:
            raise ConfigError("dt_s must be positive")

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


def reflect_across_axis(position, x0: float) -> np.ndarray:
    """Reflect (x, y) across the vertical axis x = x0: (2*x0 - x, y)."""
    p = np.asarray(position, dtype=float)
    return np.array([2.0 * x0 - p[0], p[1]])


def _ghost_positions(
    frame: DetectionFrame, cfg: SpoofConfig, rng: np.random.Generator
) -> list[np.ndarray]:
    """Positions of the frame's Poisson(ghost_rate) ghosts.

    Placement is uniform over ghost_region, or, in near_track mode,
    uniform in the annulus [ghost_inner_m, ghost_radius_m] around a
    randomly chosen clean detection of the frame, shifted by
    ghost_offset_m along ghost_offset_dir.
    """
    count = int(rng.poisson(cfg.ghost_rate))
    anchors = [d.z for d in frame.detections if d.label == LABEL_CLEAN]
    offset = cfg.ghost_offset_m * np.asarray(cfg.ghost_offset_dir, dtype=float)
    r2_lo = cfg.ghost_inner_m * cfg.ghost_inner_m
    r2_hi = cfg.ghost_radius_m * cfg.ghost_radius_m
    positions: list[np.ndarray] = []
    for _ in range(count):
        if cfg.ghost_mode == GHOST_MODE_NEAR_TRACK and anchors:
            center = anchors[int(rng.integers(len(anchors)))] + offset
            radius = math.sqrt(r2_lo + rng.random() * (r2_hi - r2_lo))
            theta = rng.uniform(0.0, 2.0 * math.pi)
            positions.append(center + radius * np.array([math.cos(theta), math.sin(theta)]))
        elif cfg.ghost_region is not None:
            positions.append(cfg.ghost_region.sample(rng, 1)[0])
        # near_track with nothing to anchor on and no fallback region
        # skips the draw rather than invent a position
    return positions


@np.errstate(over="ignore", invalid="ignore")
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
    stream. A spoofed position that overflows raises ConfigError, the
    one report of it: numpy's overflow warnings are off in here.
    """
    if cfg.spoof_type is SpoofType.GHOST and cfg.ghost_mode == GHOST_MODE_UNIFORM:
        if cfg.ghost_region is None:
            raise ConfigError("uniform ghost mode requires ghost_region")
    clean_frames = tuple(clean_run)
    if cfg.spoof_type is SpoofType.CLEAN:
        return SpoofedRun(clean_frames, clean_frames, (), cfg)
    kind = cfg.spoof_type.value
    label = cfg.spoof_type.label
    ghost_R = np.eye(2) * cfg.ghost_sigma_m * cfg.ghost_sigma_m
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
                offset = cfg.alpha * t_rel * np.asarray(cfg.drift_dir, dtype=float)
                named = [(d, d.z + offset) for d in targeted]
            else:
                named = [(d, reflect_across_axis(d.z, cfg.mirror_x0)) for d in targeted]
        # by id, so a drifted detection takes its source's place
        detections = {d.detection_id: d for d in frame.detections}
        for source, z in named:
            if not np.isfinite(z).all():
                raise ConfigError(
                    f"{kind} spoof puts a detection at a non-finite position at step {frame.t}"
                )
            if cfg.spoof_type is SpoofType.DRIFT:
                det_id = source.detection_id
            else:
                det_id, next_id = next_id, next_id + 1
            if source is None:
                R, truth_id, orig = ghost_R, None, (None, None)
            else:
                R, truth_id, orig = source.R, source.truth_id, source.z.tolist()
            detections[det_id] = Detection(frame.t, det_id, z, R.copy(), label, truth_id)
            log.append(SpoofLogEntry(frame.t, det_id, kind, *orig))
        spoofed.append(DetectionFrame(frame.t, tuple(detections.values())) if named else frame)
    return SpoofedRun(clean_frames, tuple(spoofed), tuple(log), cfg)


def write_spoof_log_csv(path, log: Sequence[SpoofLogEntry]) -> None:
    write_csv(path, SpoofLogEntry._fields, log)


def read_spoof_log_csv(path) -> tuple[SpoofLogEntry, ...]:
    """Strict inverse of write_spoof_log_csv."""
    return tuple(read_csv(path, SpoofLogEntry))
