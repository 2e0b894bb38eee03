"""Axis-aligned rectangular regions used for scenario bounds, sensor
fields of view, and spoof placement."""

from __future__ import annotations

from dataclasses import MISSING, dataclass

import numpy as np

from .codec import Record, bounded
from .errors import ConfigError

# bound on the magnitude of a coordinate, a region's or a mirror axis's,
# and on a ghost's reach: 2.6 times the distance to the Moon, far beyond
# any sensor's field of view. A region's width stays finite for numpy's
# uniform sampler, and a squared distance across it (at most 4e18 m^2)
# far from overflow
MAX_COORDINATE_M = 1e9

# bound on a speed, a tracked object's or a drifting spoof's: no faster
# than light (see tracking.MAX_Q for what it keeps from overflow)
MAX_SPEED_MPS = 299_792_458.0


def coordinate(default=MISSING):
    """A bounded field holding a coordinate in metres."""
    return bounded(default, low=-MAX_COORDINATE_M, high=MAX_COORDINATE_M)


@dataclass(frozen=True)
class Region(Record):
    """Axis-aligned box [x_min, x_max] x [y_min, y_max] in metres."""

    x_min: float = coordinate()
    x_max: float = coordinate()
    y_min: float = coordinate()
    y_max: float = coordinate()

    def __post_init__(self) -> None:
        super().__post_init__()
        # a positive area also rules out extents so small their product underflows
        if not (self.x_min < self.x_max and self.y_min < self.y_max and self.area > 0.0):
            raise ConfigError(
                f"degenerate region: x [{self.x_min}, {self.x_max}], "
                f"y [{self.y_min}, {self.y_max}]"
            )

    @property
    def area(self) -> float:
        return (self.x_max - self.x_min) * (self.y_max - self.y_min)

    def contains(self, point) -> bool:
        """True if the (x, y) point lies inside the box (boundary counts)."""
        x, y = float(point[0]), float(point[1])
        return self.x_min <= x <= self.x_max and self.y_min <= y <= self.y_max

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw n points uniformly over the box, shape (n, 2)."""
        xs = rng.uniform(self.x_min, self.x_max, size=n)
        ys = rng.uniform(self.y_min, self.y_max, size=n)
        return np.column_stack([xs, ys])
