"""Spans around spoofbench's layers, recorded from outside the package.

traced(tracer) swaps wrappers in under the module-level names that the
callers look up (tracker_gnn.gate, harness.TRACKER_STEPS["gnn"], ...)
and puts every original back on exit. A span is (name, phase, start_ns,
end_ns, parent index); spans stay in memory until write_spans. A span's
self time is its duration minus that of its direct children.
"""

from __future__ import annotations

import csv
import functools
import time
from contextlib import contextmanager
from pathlib import Path

from spoofbench import harness, metrics, tracker_gnn, tracker_jpda
from spoofbench.tracking import TrackStatus


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.counts: dict = {}
        self.phase = "run"
        self._stack: list = []

    def count(self, name: str, n) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, fn, name: str, on_result=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, self.phase, start, end, parent)
            if on_result is not None:
                on_result(self, args, result)
            return result

        return wrapper

    def totals(self) -> dict:
        """{(name, phase): [seconds, self seconds, calls]} over all spans."""
        child_ns = [0] * len(self.spans)
        for name, phase, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict = {}
        for (name, phase, start, end, _), children in zip(self.spans, child_ns):
            row = out.setdefault((name, phase), [0.0, 0.0, 0])
            row[0] += (end - start) * 1e-9
            row[1] += (end - start - children) * 1e-9
            row[2] += 1
        return out

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["index", "name", "phase", "start_ns", "end_ns", "parent"])
            for index, span in enumerate(self.spans):
                writer.writerow([index, *span])


def _on_clean_run(tracer, args, frames) -> None:
    tracer.count("sensing.detections", sum(len(f.detections) for f in frames))


def _on_spoof(tracer, args, spoofed) -> None:
    tracer.count("spoofing.spoof_log_entries", len(spoofed.spoof_log))


def _on_gate(tracer, args, gated) -> None:
    tracer.count("estimation.gate.gated", len(gated))


def _on_run_tracker(tracer, args, run) -> None:
    # derived from the run's outputs, so they survive a rewrite of the
    # step functions: pairs tried = tracks entering a step x detections
    frames = args[0]
    tracer.count("tracking.steps", len(run.steps))
    tracer.count("tracking.track_steps", sum(len(s.assignments) for s in run.steps))
    tracer.count(
        "estimation.gate.pairs_tried",
        sum(len(s.assignments) * len(f.detections) for s, f in zip(run.steps, frames)),
    )
    tracer.count("tracking.births", sum(len(s.births) for s in run.steps))
    confirmed = {r.track_id for r in run.snapshots if r.status == TrackStatus.CONFIRMED.value}
    tracer.count("tracking.confirmed_tracks", len(confirmed))


def _on_write(tracer, args, _) -> None:
    tracer.count("harness.write.bytes", Path(args[0]).stat().st_size)


# (namespace, key, span name, result hook); a namespace is a module or
# the dict its caller indexes
PATCHES = (
    (harness, "build_scenario", "scenario.build_scenario", None),
    (harness, "generate_clean_run", "sensing.generate_clean_run", _on_clean_run),
    (harness, "apply_spoof", "spoofing.apply_spoof", _on_spoof),
    (harness, "run_tracker", "tracking.run_tracker", _on_run_tracker),
    (harness.TRACKER_STEPS, "gnn", "tracker_gnn.gnn_step", None),
    (harness.TRACKER_STEPS, "jpda", "tracker_jpda.jpda_step", None),
    (tracker_gnn, "gate", "estimation.gate", _on_gate),
    (tracker_jpda, "gate", "estimation.gate", _on_gate),
    (tracker_gnn, "kf_predict", "estimation.kf_predict", None),
    (tracker_jpda, "kf_predict", "estimation.kf_predict", None),
    (tracker_gnn, "kf_update", "estimation.kf_update", None),
    (tracker_jpda, "kf_update", "estimation.kf_update", None),
    (tracker_gnn, "hungarian", "tracker_gnn.hungarian", None),
    (tracker_jpda, "association_probabilities", "tracker_jpda.association_probabilities", None),
    (tracker_gnn, "birth_tracks", "tracking.birth_tracks", None),
    (tracker_jpda, "birth_tracks", "tracking.birth_tracks", None),
    (tracker_gnn, "lifecycle_update", "tracking.lifecycle_update", None),
    (tracker_jpda, "lifecycle_update", "tracking.lifecycle_update", None),
    (harness, "compute_run_report", "metrics.compute_run_report", None),
    (harness, "match_tracks_to_truth", "metrics.match_tracks_to_truth", None),
    (metrics, "match_tracks_to_truth", "metrics.match_tracks_to_truth", None),
    (harness, "write_detection_csv", "harness.write", _on_write),
    (harness, "write_spoof_log_csv", "harness.write", _on_write),
    (harness, "write_snapshots_jsonl", "harness.write", _on_write),
    (harness, "write_report_json", "harness.write", _on_write),
    (harness, "_write_json", "harness.write", _on_write),
    (harness, "compare_trackers", "harness.compare_trackers", None),
    (harness, "export_plot_data", "harness.export_plot_data", None),
    (harness, "read_snapshots_jsonl", "harness.export.read", None),
    (harness, "read_report_json", "harness.export.read", None),
    (harness, "read_detection_csv", "harness.export.read", None),
)


def _get(namespace, key):
    return namespace[key] if isinstance(namespace, dict) else getattr(namespace, key)


def _set(namespace, key, value) -> None:
    if isinstance(namespace, dict):
        namespace[key] = value
    else:
        setattr(namespace, key, value)


@contextmanager
def traced(tracer: Tracer):
    """Install the wrappers for the duration of the block."""
    originals = []
    try:
        for namespace, key, name, hook in PATCHES:
            original = _get(namespace, key)
            originals.append((namespace, key, original))
            _set(namespace, key, tracer.wrap(original, name, hook))
        yield tracer
    finally:
        for namespace, key, original in reversed(originals):
            _set(namespace, key, original)
