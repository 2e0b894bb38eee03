"""One measured benchmark process.

    PYTHONPATH=src python3 perfbench/worker.py --config CFG --workload NAME \\
        --seconds S --trace 0|1 --work DIR --spawned-at T [--setup-only]

Set-up is the import of spoofbench, load_benchmark_config and plan_runs,
timed from T, the time.monotonic() at which the parent started this
process. Then, single-threaded and closed-loop, it runs grid iterations
(run_benchmark -> compare_trackers -> export_plot_data into a fresh
directory, as `spoofbench run` does): at least MIN_ITERATIONS, and more
while the next one fits the budget. Outputs are checked outside the
timed part.
With --trace 1, iterations alternate untraced and traced. Prints one
JSON object of raw timings, counts and failures; run.py reports them.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

from spoofbench import harness

from output_check import check_iteration, load_reference
from tracer import Tracer, traced

MIN_ITERATIONS = 2


def run_iteration(cfg, cells, reference: dict, work: Path, tracer=None) -> dict:
    """One grid iteration. If the pipeline raises, every cell fails."""
    # start every iteration from a collected heap, as a fresh process does
    gc.collect()
    out = Path(tempfile.mkdtemp(dir=work))
    if tracer is not None:
        tracer.phase = "run"
    try:
        t0 = time.perf_counter()
        try:
            harness.run_benchmark(cfg, out_dir=str(out))
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.phase = "export"
            harness.compare_trackers(out)
            written = harness.export_plot_data(out)
            t2 = time.perf_counter()
        except Exception as exc:  # a failing grid is a measured outcome
            traceback.print_exc()
            message = f"pipeline raised {type(exc).__name__}: {exc}"
            return {"traced": tracer is not None, "failures": {c[0]: [message] for c in cells}}
        if tracer is not None:
            files = [Path(p) for p in written] + [out / "comparison.csv"]
            tracer.count("harness.export.bytes", sum(p.stat().st_size for p in files))
        return {
            "traced": tracer is not None,
            "run_s": t1 - t0,
            "export_s": t2 - t1,
            "failures": check_iteration(out, cells, reference),
        }
    finally:
        shutil.rmtree(out, ignore_errors=True)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced grid iteration."""
    totals = tracer.totals()
    counts = tracer.counts

    def pick(name, column, phase=None):
        return sum(
            row[column]
            for (span, span_phase), row in totals.items()
            if span == name and phase in (None, span_phase)
        )

    tried = counts.get("estimation.gate.pairs_tried", 0)
    births = counts.get("tracking.births", 0)
    steps = counts.get("tracking.steps", 0)
    return {
        "scenario.build_scenario.s": pick("scenario.build_scenario", 0),
        "sensing.generate_clean_run.s": pick("sensing.generate_clean_run", 0),
        "sensing.detections": counts.get("sensing.detections", 0),
        "spoofing.apply_spoof.s": pick("spoofing.apply_spoof", 0),
        "spoofing.spoof_log_entries": counts.get("spoofing.spoof_log_entries", 0),
        "estimation.gate.s": pick("estimation.gate", 0),
        "estimation.gate.calls": pick("estimation.gate", 2),
        "estimation.gate.pairs_tried": tried,
        "estimation.gate.pass_ratio": counts.get("estimation.gate.gated", 0) / tried if tried else 0.0,
        "estimation.kf_predict.s": pick("estimation.kf_predict", 0),
        "estimation.kf_predict.calls": pick("estimation.kf_predict", 2),
        "estimation.kf_update.s": pick("estimation.kf_update", 0),
        "estimation.kf_update.calls": pick("estimation.kf_update", 2),
        "tracker_gnn.gnn_step.s": pick("tracker_gnn.gnn_step", 0),
        "tracker_gnn.gnn_step.self_s": pick("tracker_gnn.gnn_step", 1),
        "tracker_gnn.hungarian.s": pick("tracker_gnn.hungarian", 0),
        "tracker_jpda.jpda_step.s": pick("tracker_jpda.jpda_step", 0),
        "tracker_jpda.jpda_step.self_s": pick("tracker_jpda.jpda_step", 1),
        "tracker_jpda.association_probabilities.s": pick("tracker_jpda.association_probabilities", 0),
        "tracking.run_tracker.s": pick("tracking.run_tracker", 0),
        "tracking.run_tracker.self_s": pick("tracking.run_tracker", 1),
        "tracking.birth_tracks.s": pick("tracking.birth_tracks", 0),
        "tracking.lifecycle_update.s": pick("tracking.lifecycle_update", 0),
        "tracking.track_steps": counts.get("tracking.track_steps", 0),
        "tracking.live_tracks_mean": counts.get("tracking.track_steps", 0) / steps if steps else 0.0,
        "tracking.births": births,
        "tracking.birth_confirm_ratio": (
            counts.get("tracking.confirmed_tracks", 0) / births if births else 0.0
        ),
        "metrics.compute_run_report.s": pick("metrics.compute_run_report", 0),
        "metrics.match_tracks_to_truth.run_s": pick("metrics.match_tracks_to_truth", 0, "run"),
        "metrics.match_tracks_to_truth.export_s": pick("metrics.match_tracks_to_truth", 0, "export"),
        "harness.write.s": pick("harness.write", 0),
        "harness.write.bytes": counts.get("harness.write.bytes", 0),
        "harness.compare_trackers.s": pick("harness.compare_trackers", 0),
        "harness.export_plot_data.s": pick("harness.export_plot_data", 0),
        "harness.export.read_s": pick("harness.export.read", 0, "export"),
        "harness.export.bytes": counts.get("harness.export.bytes", 0),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one measured benchmark process")
    parser.add_argument("--config", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True, help="scratch directory for report trees")
    parser.add_argument("--spans", help="file the last traced iteration's spans go to")
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    cfg = harness.load_benchmark_config(args.config)
    specs = harness.plan_runs(cfg)
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    cells = [(s.run_id, s.tracker, s.spoof_name) for s in specs]
    reference = load_reference(args.workload)
    work = Path(args.work)
    iterations: list = []
    layers: list = []
    tracer = None
    start = time.perf_counter()
    while True:
        done = len(iterations)
        if done >= MIN_ITERATIONS and (time.perf_counter() - start) * (done + 1) / done > args.seconds:
            break
        if args.trace and done % 2 == 1:
            tracer = Tracer()
            with traced(tracer):
                iterations.append(run_iteration(cfg, cells, reference, work, tracer))
            if "run_s" in iterations[-1]:
                layers.append(layer_metrics(tracer))
        else:
            iterations.append(run_iteration(cfg, cells, reference, work))
    if tracer is not None and args.spans:
        tracer.write_spans(Path(args.spans))
    print(json.dumps({
        "setup_s": setup_s,
        "cells": len(cells),
        "iterations": iterations,
        # the low median keeps exact counts whole
        "layers": {k: statistics.median_low(m[k] for m in layers) for k in layers[0]} if layers else {},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
