"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import worker  # noqa: E402
from output_check import check_iteration, load_reference  # noqa: E402
from tracer import PATCHES, Tracer, _get, traced  # noqa: E402
from workloads import SEED_MODULUS, WORKLOADS, workload_config  # noqa: E402

from spoofbench import cli, harness  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _cells(cfg):
    return [(s.run_id, s.tracker, s.spoof_name) for s in harness.plan_runs(cfg)]


def _small_grid(tmp_path):
    """sparse_clean cut to one seed: the same cells as the workload's first."""
    raw = workload_config("sparse_clean", 0)
    raw["seeds"] = dict(raw["seeds"], count=1)
    cfg = harness.BenchmarkConfig.from_dict(raw)
    return cfg, _cells(cfg)


@pytest.mark.parametrize("name", WORKLOADS)
@pytest.mark.parametrize("seed", [0, SEED_MODULUS + 7])
def test_workload_configs_validate(name, seed, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(workload_config(name, seed)), encoding="utf-8")
    assert cli.main(["validate", "--config", str(path)]) == 0
    assert "config ok" in capsys.readouterr().out


@pytest.mark.parametrize("name", WORKLOADS)
def test_reference_covers_every_workload_seed(name):
    reference = load_reference(name)
    for seed in (0, SEED_MODULUS - 1, 12345):
        cfg = harness.BenchmarkConfig.from_dict(workload_config(name, seed))
        assert all(run_id in reference for run_id, _, _ in _cells(cfg))


def test_output_check_accepts_outputs_and_rejects_perturbed_drift(tmp_path):
    cfg, cells = _small_grid(tmp_path)
    reference = load_reference("sparse_clean")
    out = tmp_path / "report"
    harness.run_benchmark(cfg, out_dir=str(out))
    harness.compare_trackers(out)
    harness.export_plot_data(out)
    assert check_iteration(out, cells, reference) == {}

    run_id = cells[0][0]
    report_file = out / run_id / "report.json"
    report = json.loads(report_file.read_text(encoding="utf-8"))
    report["mean_drift_m"] += 1e-6
    report_file.write_text(json.dumps(report), encoding="utf-8")
    failures = check_iteration(out, cells, reference)
    assert list(failures) == [run_id]
    assert "mean_drift_m" in failures[run_id][0]

    (out / cells[1][0] / "overlay.csv").unlink()
    assert "missing overlay.csv" in check_iteration(out, cells, reference)[cells[1][0]]


def test_output_check_fails_every_cell_when_the_pipeline_raises(tmp_path, monkeypatch):
    cfg, cells = _small_grid(tmp_path)

    def broken(*args, **kwargs):
        raise FloatingPointError("injected")

    monkeypatch.setattr(harness, "run_benchmark", broken)
    result = worker.run_iteration(cfg, cells, load_reference("sparse_clean"), tmp_path)
    assert "run_s" not in result
    assert sorted(result["failures"]) == sorted(c[0] for c in cells)


@pytest.mark.parametrize("trace", [0, 1])
def test_run_reports_a_grid_that_always_raises_as_failed(trace, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise FloatingPointError("injected")

    def in_process(argv, deadline):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert worker.main([*argv, "--spawned-at", repr(time.monotonic())]) == 0
        return json.loads(out.getvalue().splitlines()[-1])

    monkeypatch.setattr(harness, "run_benchmark", broken)
    monkeypatch.setattr(run, "run_worker", in_process)
    argv = ["--workload", "sparse_clean", "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    assert "failed_cell_ratio 1.0 ratio" in lines
    assert any(line.startswith("check failed: ") and "injected" in line for line in lines)


def test_traced_iteration_restores_every_wrapped_name(tmp_path):
    cfg, cells = _small_grid(tmp_path)
    originals = [_get(ns, key) for ns, key, _, _ in PATCHES]
    tracer = Tracer()
    with traced(tracer):
        assert all(_get(ns, key) is not o for (ns, key, _, _), o in zip(PATCHES, originals))
        result = worker.run_iteration(cfg, cells, load_reference("sparse_clean"), tmp_path, tracer)
    assert all(_get(ns, key) is o for (ns, key, _, _), o in zip(PATCHES, originals))
    assert result["failures"] == {}

    layers = worker.layer_metrics(tracer)
    totals = tracer.totals()
    for name in ("tracker_gnn.gnn_step", "tracker_jpda.jpda_step", "tracking.run_tracker"):
        seconds, self_seconds, _ = totals[(name, "run")]
        assert 0.0 < self_seconds < seconds
    # every track entering a step is predicted and gated exactly once
    assert layers["estimation.kf_predict.calls"] == layers["tracking.track_steps"]
    assert layers["estimation.gate.calls"] == layers["tracking.track_steps"]
    assert 0.0 < layers["estimation.gate.pass_ratio"] <= 1.0
    assert 0.0 < layers["tracking.birth_confirm_ratio"] <= 1.0

    tracer.write_spans(tmp_path / "spans.csv")
    lines = (tmp_path / "spans.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == len(tracer.spans) + 1


def test_metric_names_and_units_match_benchmark_json(tmp_path, monkeypatch, capsys):
    cfg, cells = _small_grid(tmp_path)
    reference = load_reference("sparse_clean")
    plain = worker.run_iteration(cfg, cells, reference, tmp_path)
    assert plain["failures"] == {}
    tracer = Tracer()
    with traced(tracer):
        traced_it = worker.run_iteration(cfg, cells, reference, tmp_path, tracer)
    raw = {
        "setup_s": 0.7,
        "cells": len(cells),
        "iterations": [plain, traced_it],
        "layers": worker.layer_metrics(tracer),
        "peak_rss_mb": 80.0,
    }
    monkeypatch.setattr(run, "run_worker", lambda argv, deadline: raw)

    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        argv = ["--workload", "sparse_clean", "--seed", "0", "--seconds", "0", "--trace", str(trace)]
        assert run.main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        result = json.loads(lines[-1])
        declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
        assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
        assert all(f"{name} {m['value']!r} {m['unit']}" in lines for name, m in result["metrics"].items())
        assert result["correct"] is True and result["failed"] == 0
        # printed for reading, not bounded
        assert any(line.startswith("export_s ") for line in lines) == (trace == 0)


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stock_grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
