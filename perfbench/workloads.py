"""The benchmark's workloads: one spoofbench config each, under configs/.

A workload seed becomes the config's seeds.base_seed, reduced modulo
SEED_MODULUS so that every seed has recorded reference outputs
(reference.json covers base seeds 0 .. SEED_MODULUS-1). The same seed
always gives the same config, hence the same inputs.
"""

from __future__ import annotations

import json
from pathlib import Path

WORKLOAD_DIR = Path(__file__).resolve().parent / "configs"
WORKLOADS = ("stock_grid", "dense_ghost", "sparse_clean")
SEED_MODULUS = 100


def workload_config(name: str, seed: int) -> dict:
    """The workload's config as a JSON object, seeded for this run."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {list(WORKLOADS)}")
    with open(WORKLOAD_DIR / f"{name}.json", "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    cfg["seeds"] = dict(cfg["seeds"], base_seed=seed % SEED_MODULUS)
    return cfg
