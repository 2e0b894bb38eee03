"""Record reference.json: every cell's outputs at every workload seed.

    PYTHONPATH=src python3 perfbench/record_reference.py

Runs each workload once, on every usable CPU, over base seeds
0 .. SEED_MODULUS + count - 2, which covers every cell that any workload
seed can plan: cells depend only on their own (spoof, tracker, seed),
never on the rest of the grid.
Re-record only when a change is meant to move the outputs.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

from output_check import REFERENCE_PATH, cell_outputs
from workloads import SEED_MODULUS, WORKLOADS, workload_config

from spoofbench import load_benchmark_config, run_benchmark

WORK_DIR = Path(__file__).resolve().parent.parent / ".perfbench_work"


def record(name: str, work: Path) -> dict:
    raw = workload_config(name, 0)
    raw["seeds"] = {"base_seed": 0, "count": SEED_MODULUS + raw["seeds"]["count"] - 1}
    config_path = work / f"{name}.json"
    config_path.write_text(json.dumps(raw), encoding="utf-8")
    cfg = load_benchmark_config(config_path)
    out = run_benchmark(cfg, out_dir=str(work / name), jobs=len(os.sched_getaffinity(0)))
    with open(out / "manifest.json", "r", encoding="utf-8") as fh:
        runs = json.load(fh)["runs"]
    return {entry["run_id"]: cell_outputs(out / entry["run_id"]) for entry in runs}


def main() -> int:
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK_DIR))
    try:
        reference = {name: record(name, work) for name in WORKLOADS}
    finally:
        shutil.rmtree(work)
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump({"seed_modulus": SEED_MODULUS, "workloads": reference}, fh, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {sum(len(v) for v in reference.values())} cells to {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
