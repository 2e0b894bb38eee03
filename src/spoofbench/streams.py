"""Counter-based random stream derivation.

Every random draw in the package comes from a generator keyed by
(seed, tag, *counters) rather than from one sequentially-consumed stream.
Only sensing and spoofing draw; tracking and metrics are pure functions
of the detection streams. Two consequences matter for reproducibility:

* replaying any (seed, path) yields the identical draw sequence, and
* adding draws under one path (say, spoof injection at one timestep) never
  shifts the draws under any other path, so the clean detection stream is
  bit-identical whether or not a spoof is layered on top of it.
"""

from __future__ import annotations

import numpy as np

# Stream tags: first element of every spawn path. Values are arbitrary but
# frozen; changing them changes every derived stream.
TAG_SENSE = 1
# 2 is free: clutter draws use TAG_SENSE with sensing.CLUTTER_SLOT
TAG_SPOOF = 3


def substream(seed: int, *path: int) -> np.random.Generator:
    """Generator for the stream addressed by (seed, *path).

    Deterministic: the same address always produces the same generator
    state, independent of any other stream's consumption.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.default_rng(ss)


def derive_seed(seed: int, *path: int) -> int:
    """Collapse (seed, *path) to a single integer seed for a sub-run."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))
    return int(ss.generate_state(1, dtype=np.uint64)[0])
