"""Spoof injection: drift, ghost, and mirror attacks on detection runs.

The clean stream is never mutated. Drift moves a targeted platform's
own detection (same detection_id, relabeled); mirror appends a
reflected echo and keeps the original; ghost appends detections with no
platform origin. Every spoofed detection is recorded in a spoof log
that preserves the original position where one exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .codec import Record, read_csv, write_csv
from .errors import ConfigError
from .geometry import Region
from .sensing import LABEL_CLEAN, Detection, DetectionFrame
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
            if self.ghost_rate < 0.0:
                raise ConfigError("ghost_rate must be non-negative")
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


def _drift_frame(
    frame: DetectionFrame, cfg: SpoofConfig, t_rel: float
) -> tuple[DetectionFrame, list[SpoofLogEntry]]:
    """Move targeted clean detections by alpha * t_rel along drift_dir.

    t_rel is seconds since injection start; the offset grows linearly
    from zero at the start of the window. Labels become spoof:drift and
    detection ids are preserved (the true detection itself is moved).
    """
    offset = cfg.alpha * t_rel * np.asarray(cfg.drift_dir, dtype=float)
    detections: list[Detection] = []
    entries: list[SpoofLogEntry] = []
    for det in frame.detections:
        if det.label == LABEL_CLEAN and cfg.targets(det.truth_id):
            detections.append(replace(det, z=det.z + offset, label="spoof:drift"))
            entries.append(
                SpoofLogEntry(frame.t, det.detection_id, SpoofType.DRIFT.value, *det.z.tolist())
            )
        else:
            detections.append(det)
    return DetectionFrame(t=frame.t, detections=tuple(detections)), entries


def _ghost_frame(
    frame: DetectionFrame, cfg: SpoofConfig, rng: np.random.Generator, next_id: int
) -> tuple[DetectionFrame, list[SpoofLogEntry], int]:
    """Append Poisson(ghost_rate) detections with no platform origin.

    Placement is uniform over ghost_region, or, in near_track mode,
    uniform in the annulus [ghost_inner_m, ghost_radius_m] around a
    randomly chosen clean detection of the frame, shifted by
    ghost_offset_m. Existing detections are untouched.
    """
    count = int(rng.poisson(cfg.ghost_rate))
    if count == 0:
        return frame, [], next_id
    R = np.eye(2) * cfg.ghost_sigma_m * cfg.ghost_sigma_m
    clean = [d for d in frame.detections if d.label == LABEL_CLEAN]
    added: list[Detection] = []
    entries: list[SpoofLogEntry] = []
    for _ in range(count):
        if cfg.ghost_mode == GHOST_MODE_NEAR_TRACK and clean:
            anchor = clean[int(rng.integers(len(clean)))].z
            center = anchor + cfg.ghost_offset_m * np.asarray(cfg.ghost_offset_dir, dtype=float)
            # uniform over the annulus [ghost_inner_m, ghost_radius_m]
            r2_lo = cfg.ghost_inner_m * cfg.ghost_inner_m
            r2_hi = cfg.ghost_radius_m * cfg.ghost_radius_m
            radius = math.sqrt(r2_lo + rng.random() * (r2_hi - r2_lo))
            theta = rng.uniform(0.0, 2.0 * math.pi)
            z = center + radius * np.array([math.cos(theta), math.sin(theta)])
        elif cfg.ghost_region is not None:
            z = cfg.ghost_region.sample(rng, 1)[0]
        else:
            # near_track with nothing to anchor on and no fallback
            # region: skip the draw rather than invent a position
            continue
        added.append(
            Detection(
                t=frame.t,
                detection_id=next_id,
                z=z,
                R=R.copy(),
                label="spoof:ghost",
            )
        )
        entries.append(SpoofLogEntry(frame.t, next_id, SpoofType.GHOST.value, None, None))
        next_id += 1
    out = DetectionFrame(t=frame.t, detections=frame.detections + tuple(added))
    return out, entries, next_id


def _mirror_frame(
    frame: DetectionFrame, cfg: SpoofConfig, next_id: int
) -> tuple[DetectionFrame, list[SpoofLogEntry], int]:
    """Append, for each targeted clean detection, its reflection across
    x = mirror_x0. Originals are retained; echoes get fresh ids."""
    added: list[Detection] = []
    entries: list[SpoofLogEntry] = []
    for det in frame.detections:
        if det.label != LABEL_CLEAN or not cfg.targets(det.truth_id):
            continue
        added.append(
            Detection(
                t=frame.t,
                detection_id=next_id,
                z=reflect_across_axis(det.z, cfg.mirror_x0),
                R=det.R.copy(),
                label="spoof:mirror",
                truth_id=det.truth_id,
            )
        )
        entries.append(
            SpoofLogEntry(frame.t, next_id, SpoofType.MIRROR.value, *det.z.tolist())
        )
        next_id += 1
    out = DetectionFrame(t=frame.t, detections=frame.detections + tuple(added))
    return out, entries, next_id


def apply_spoof(clean_run: Sequence[DetectionFrame], cfg: SpoofConfig) -> SpoofedRun:
    """Apply one spoof campaign over its injection window.

    Deterministic given (clean_run, cfg): ghost draws come from streams
    keyed by (cfg.seed, timestep). Frames outside the window pass
    through unchanged; a window starting beyond the final frame is a
    no-op. The clean input is returned untouched alongside the spoofed
    stream.
    """
    if cfg.spoof_type is SpoofType.GHOST and cfg.ghost_mode == GHOST_MODE_UNIFORM:
        if cfg.ghost_region is None:
            raise ConfigError("uniform ghost mode requires ghost_region")
    clean_frames = tuple(clean_run)
    if cfg.spoof_type is SpoofType.CLEAN:
        return SpoofedRun(clean_frames, clean_frames, (), cfg)
    next_id = max(
        (d.detection_id for f in clean_frames for d in f.detections), default=-1
    ) + 1
    t_start = cfg.injection_window[0]
    spoofed: list[DetectionFrame] = []
    log: list[SpoofLogEntry] = []
    for frame in clean_frames:
        if not cfg.in_window(frame.t):
            spoofed.append(frame)
            continue
        if cfg.spoof_type is SpoofType.DRIFT:
            t_rel = (frame.t - t_start) * cfg.dt_s
            out, entries = _drift_frame(frame, cfg, t_rel)
        elif cfg.spoof_type is SpoofType.GHOST:
            rng = substream(cfg.seed, TAG_SPOOF, frame.t)
            out, entries, next_id = _ghost_frame(frame, cfg, rng, next_id)
        else:
            out, entries, next_id = _mirror_frame(frame, cfg, next_id)
        spoofed.append(out)
        log.extend(entries)
    return SpoofedRun(clean_frames, tuple(spoofed), tuple(log), cfg)


def write_spoof_log_csv(path, log: Sequence[SpoofLogEntry]) -> None:
    write_csv(path, SpoofLogEntry._fields, log)


def read_spoof_log_csv(path) -> tuple[SpoofLogEntry, ...]:
    """Strict inverse of write_spoof_log_csv."""
    return tuple(read_csv(path, SpoofLogEntry))
