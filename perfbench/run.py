"""spoofbench benchmark: one measured run of one workload.

    python3 perfbench/run.py --workload stock_grid --seed 0 --seconds 55 --trace 0

Run from anywhere inside a spoofbench checkout; the program is imported
from its src/ directory, so nothing needs installing. The workload's
config, seeded from --seed, is written to a scratch directory under
.perfbench_work/ and measured by worker.py in fresh, single-threaded
Python processes with BLAS/OpenMP pinned to one thread.

--trace 0 reports the end-to-end metrics: set-up time is the median of
SETUP_PROBES set-up-only processes plus the measuring process itself;
the rest are medians over the grid iterations. --trace 1 reports the
per-layer metrics of a traced iteration and the tracing overhead.

A grid that raises in every iteration is still reported, as failed
cells with "correct": false and without the timings it could not give.

Prints one line per metric (name, value, unit) and per failed output
check, then the JSON result as the last line. Exits non-zero, printing
no result, when the checkout has no spoofbench source or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import SEED_MODULUS, WORKLOADS, workload_config

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

SETUP_PROBES = 3
# every run, probes and builds included, ends well inside 180 s
DEADLINE_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

END_TO_END = {
    "setup_s": "s",
    "cells_per_s": "1/s",
    "total_s": "s",
    "peak_rss_mb": "MB",
}

# printed with the end-to-end metrics but left out of the result and of
# BENCHMARK.json: one export takes 0.5-2 s, too short to time within a
# 0.25 bound on a shared machine; total_s includes it
UNBOUNDED = {"export_s": "s"}

PER_LAYER = {
    "scenario.build_scenario.s": "s",
    "sensing.generate_clean_run.s": "s",
    "sensing.detections": "count",
    "spoofing.apply_spoof.s": "s",
    "spoofing.spoof_log_entries": "count",
    "estimation.gate.s": "s",
    "estimation.gate.calls": "count",
    "estimation.gate.pairs_tried": "count",
    "estimation.gate.pass_ratio": "ratio",
    "estimation.kf_predict.s": "s",
    "estimation.kf_predict.calls": "count",
    "estimation.kf_update.s": "s",
    "estimation.kf_update.calls": "count",
    "tracker_gnn.gnn_step.s": "s",
    "tracker_gnn.gnn_step.self_s": "s",
    "tracker_gnn.hungarian.s": "s",
    "tracker_jpda.jpda_step.s": "s",
    "tracker_jpda.jpda_step.self_s": "s",
    "tracker_jpda.association_probabilities.s": "s",
    "tracking.run_tracker.s": "s",
    "tracking.run_tracker.self_s": "s",
    "tracking.birth_tracks.s": "s",
    "tracking.lifecycle_update.s": "s",
    "tracking.track_steps": "count",
    "tracking.live_tracks_mean": "count",
    "tracking.births": "count",
    "tracking.birth_confirm_ratio": "ratio",
    "metrics.compute_run_report.s": "s",
    "metrics.match_tracks_to_truth.run_s": "s",
    "metrics.match_tracks_to_truth.export_s": "s",
    "harness.write.s": "s",
    "harness.write.bytes": "bytes",
    "harness.compare_trackers.s": "s",
    "harness.export_plot_data.s": "s",
    "harness.export.read_s": "s",
    "harness.export.bytes": "bytes",
    "trace.untraced_cells_per_s": "1/s",
    "trace.traced_cells_per_s": "1/s",
    "trace.overhead_ratio": "ratio",
}


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_worker(argv: list, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), *argv, "--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=worker_env(),
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError("worker ran past the deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def end_to_end(raw: dict, setups: list) -> dict:
    """The end-to-end metrics; the timings need a completed untraced iteration."""
    metrics = {"setup_s": statistics.median(setups)}
    timed = [it for it in raw["iterations"] if "run_s" in it and not it["traced"]]
    if timed:
        metrics["cells_per_s"] = statistics.median(raw["cells"] / it["run_s"] for it in timed)
        metrics["export_s"] = statistics.median(it["export_s"] for it in timed)
        metrics["total_s"] = statistics.median(it["run_s"] + it["export_s"] for it in timed)
    metrics["peak_rss_mb"] = raw["peak_rss_mb"]
    return metrics


def per_layer(raw: dict) -> dict:
    """The per-layer metrics; the overhead needs a completed iteration of each kind."""
    rates = {True: [], False: []}
    for it in raw["iterations"]:
        if "run_s" in it:
            rates[it["traced"]].append(raw["cells"] / it["run_s"])
    metrics = dict(raw["layers"])
    if rates[True] and rates[False]:
        traced, untraced = statistics.median(rates[True]), statistics.median(rates[False])
        metrics["trace.untraced_cells_per_s"] = untraced
        metrics["trace.traced_cells_per_s"] = traced
        metrics["trace.overhead_ratio"] = untraced / traced
    return metrics


def measure(args, work: Path) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    config_path = work / "config.json"
    config_path.write_text(json.dumps(workload_config(args.workload, args.seed)), encoding="utf-8")
    common = ["--config", str(config_path), "--workload", args.workload, "--work", str(work)]
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            probe = run_worker([*common, "--seconds", "0", "--setup-only"], deadline)
            setups.append(probe["setup_s"])
    measured = [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        measured += ["--spans", str(WORK / f"spans_{args.workload}.csv")]
    raw = run_worker(measured, deadline)
    setups.append(raw["setup_s"])
    metrics = per_layer(raw) if args.trace else end_to_end(raw, setups)
    counted = [it for it in raw["iterations"] if args.trace or not it["traced"]]
    return {
        "metrics": metrics,
        "iterations": len(counted),
        "attempted": raw["cells"] * len(counted),
        "failures": [it["failures"] for it in counted],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="spoofbench benchmark: one workload run")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "spoofbench" / "__init__.py").is_file():
        print(f"perfbench: no spoofbench source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))
    try:
        result = measure(args, work)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = PER_LAYER if args.trace else {**END_TO_END, **UNBOUNDED}
    failed = 0
    for failures in result["failures"]:
        failed += len(failures)
        for run_id, problems in sorted(failures.items()):
            for problem in problems:
                print(f"check failed: {run_id}: {problem}")
    pinned = worker_env()
    env = " ".join(f"{name}={pinned[name]}" for name in THREAD_VARS)
    print(
        f"workload={args.workload} seed={args.seed} base_seed={args.seed % SEED_MODULUS}"
        f" iterations={result['iterations']} nproc={len(os.sched_getaffinity(0))} {env}"
    )
    for name, value in result["metrics"].items():
        print(f"{name} {value!r} {units[name]}")
    print(f"failed_cell_ratio {failed / result['attempted']!r} ratio")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in result["metrics"].items()
            if name not in UNBOUNDED
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
