"""Noisy detection generation: misses, Gaussian position noise, clutter.

Every draw comes from a stream keyed by (seed, tag, timestep, slot), so
regenerating any frame, or layering spoofs on top later, never shifts
the draws of other frames or platforms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Optional

import numpy as np

from .codec import Record, read_csv, write_csv
from .errors import ConfigError
from .geometry import MAX_COORDINATE_M, Region
from .streams import TAG_SENSE, substream

# substream slot reserved for the clutter draws of a frame; platform
# slots are their indices, which stay far below this
CLUTTER_SLOT = 2**20

# bound on a clutter or ghost rate, the Poisson mean of detections per
# frame: far above every rate the repo uses (at most 30), and far below
# a count that would exhaust memory or numpy's Poisson sampler
MAX_RATE_PER_FRAME = 1_000.0

# bound on a noise standard deviation, a sensor's or a ghost cloud's: no
# wider than the largest region, so a detection's R = sigma^2 I stays far
# from overflow (see tracking.MAX_SPEED_MPS)
MAX_SIGMA_M = MAX_COORDINATE_M

DEFAULT_FOV = Region(-600.0, 600.0, -600.0, 600.0)

LABEL_CLEAN = "clean"
LABEL_CLUTTER = "clutter"


@dataclass(frozen=True)
class Detection:
    """One measured position with its reported covariance and provenance.

    label is "clean", "clutter" or "spoof:<type>"; truth_id is the
    platform a clean or drift/mirror detection came from. Trackers never
    read either.
    """

    t: int
    detection_id: int
    z: np.ndarray
    R: np.ndarray
    label: str
    truth_id: Optional[int] = None

    def origin_key(self) -> str:
        """Source bucket used by the metrics: platform:<id>, clutter,
        or spoof:<type>."""
        return f"platform:{self.truth_id}" if self.label == LABEL_CLEAN else self.label


@dataclass(frozen=True)
class DetectionFrame:
    """All detections of one timestep, ordered by detection_id."""

    t: int
    detections: tuple[Detection, ...]

    def __post_init__(self) -> None:
        if any(d.t != self.t for d in self.detections):
            raise ValueError("frame contains detections from another timestep")
        ids = [d.detection_id for d in self.detections]
        if ids != sorted(ids):
            object.__setattr__(
                self,
                "detections",
                tuple(sorted(self.detections, key=lambda d: d.detection_id)),
            )

    # frames are frozen, so the stacks are built once on first use and
    # never go stale
    @cached_property
    def positions(self) -> np.ndarray:
        """Measured positions stacked in detection order, shape (M, 2)."""
        return np.array([d.z for d in self.detections], dtype=float).reshape(-1, 2)

    @cached_property
    def covariances(self) -> np.ndarray:
        """Reported covariances stacked in detection order, shape (M, 2, 2)."""
        return np.array([d.R for d in self.detections], dtype=float).reshape(-1, 2, 2)


@dataclass(frozen=True)
class SensorConfig(Record):
    p_detect: float = 0.9
    noise_sigma_m: float = 5.0
    clutter_rate: float = 2.0
    fov: Region = DEFAULT_FOV

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_detect <= 1.0:
            raise ConfigError(f"p_detect {self.p_detect} outside [0, 1]")
        if self.noise_sigma_m <= 0.0:
            raise ConfigError("noise_sigma_m must be positive")
        if self.noise_sigma_m > MAX_SIGMA_M:
            raise ConfigError(f"noise_sigma_m {self.noise_sigma_m} exceeds {MAX_SIGMA_M:g}")
        if not 0.0 <= self.clutter_rate <= MAX_RATE_PER_FRAME:
            raise ConfigError(
                f"clutter_rate {self.clutter_rate} outside [0, {MAX_RATE_PER_FRAME:g}]"
            )


def generate_clean_run(truth, cfg: SensorConfig, seed: int) -> list[DetectionFrame]:
    """Simulate the detection stream of a ground-truth scenario.

    Per timestep, each platform inside the field of view is detected
    with probability p_detect; the measurement is the true position plus
    isotropic Gaussian noise with covariance R = noise_sigma_m^2 * I.
    Clutter counts are Poisson(clutter_rate) with positions uniform over
    the field of view.

    Replay is bit-exact: every draw is addressed by
    (seed, TAG_SENSE, timestep, platform slot).
    """
    sigma = cfg.noise_sigma_m
    R = np.eye(2) * sigma * sigma
    frames: list[DetectionFrame] = []
    next_id = 0
    for k in range(truth.n_steps):
        detections: list[Detection] = []
        for idx, pid in enumerate(truth.platform_ids):
            pos = truth.positions[pid][k]
            if not cfg.fov.contains(pos):
                continue
            rng = substream(seed, TAG_SENSE, k, idx)
            if rng.random() >= cfg.p_detect:
                continue
            z = pos + rng.normal(0.0, sigma, size=2)
            detections.append(
                Detection(
                    t=k, detection_id=next_id, z=z, R=R.copy(), label=LABEL_CLEAN, truth_id=pid
                )
            )
            next_id += 1
        rng = substream(seed, TAG_SENSE, k, CLUTTER_SLOT)
        n_clutter = int(rng.poisson(cfg.clutter_rate))
        if n_clutter:
            points = cfg.fov.sample(rng, n_clutter)
            for point in points:
                detections.append(
                    Detection(
                        t=k,
                        detection_id=next_id,
                        z=np.asarray(point, dtype=float),
                        R=R.copy(),
                        label=LABEL_CLUTTER,
                    )
                )
                next_id += 1
        frames.append(DetectionFrame(t=k, detections=tuple(detections)))
    return frames


class DetectionRow(NamedTuple):
    """One row of clean.csv or spoofed.csv: a detection, its reported
    covariance and its provenance."""

    run_id: str
    t: int
    detection_id: int
    x: float
    y: float
    r_xx: float
    r_xy: float
    r_yy: float
    label: str
    truth_id: Optional[int]


DETECTION_CSV_HEADER = list(DetectionRow._fields)

# the labels of a clean stream; a spoofed one adds its spoof type's label
CLEAN_STREAM_LABELS = (LABEL_CLEAN, LABEL_CLUTTER)


def write_detection_csv(path, frames: Iterable[DetectionFrame], run_id: str) -> None:
    """Serialize frames to CSV, one row per detection."""
    rows = (
        (run_id, d.t, d.detection_id, *d.z.tolist(), d.R[0, 0], d.R[0, 1], d.R[1, 1],
         d.label, d.truth_id)
        for frame in frames
        for d in frame.detections
    )
    write_csv(path, DETECTION_CSV_HEADER, rows)


def read_detection_csv(path, labels: tuple = CLEAN_STREAM_LABELS) -> list[DetectionRow]:
    """Strict inverse of write_detection_csv: the rows in file order, each
    labelled one of labels."""

    def check_label(row: DetectionRow) -> None:
        if row.label not in labels:
            raise ConfigError(f"label must be one of {list(labels)}, got {row.label!r}")
        if row.label == LABEL_CLEAN and row.truth_id is None:
            raise ConfigError("truth_id must not be empty in a clean row")

    return read_csv(path, DetectionRow, check_label)
