import csv
import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from spoofbench.cli import main
from spoofbench.errors import ConfigError
from spoofbench.geometry import MAX_COORDINATE_M, Region
from spoofbench.codec import load_record
from spoofbench.harness import (
    BenchmarkConfig,
    RunManifest,
    compare_trackers,
    export_plot_data,
    load_benchmark_config,
    plan_runs,
    run_benchmark,
    run_group,
    worker_count,
)
from spoofbench.metrics import RunReport, compute_run_report, write_report_json
from spoofbench.scenario import PlatformSpec, ScenarioConfig, build_scenario
from spoofbench.sensing import MAX_SIGMA_M, SensorConfig, generate_clean_run
from spoofbench.spoofing import SpoofConfig, SpoofType, apply_spoof
from spoofbench.tracking import MAX_Q, MAX_SPEED_MPS, read_snapshots_jsonl


REGION = Region(x_min=0.0, x_max=400.0, y_min=0.0, y_max=400.0)
ROOT = Path(__file__).resolve().parent.parent
DEMO_CONFIG = ROOT / "demos" / "benchmark_config.json"


def tiny_config(trackers=("gnn",), seeds=(0,), spoofs=None, clutter=0.5, out=None):
    """Single slow mover over 20 steps; cheap enough for many runs."""
    scenario = ScenarioConfig(
        duration_s=20.0,
        dt_s=1.0,
        seed=0,
        region=REGION,
        platforms=(
            PlatformSpec(
                platform_id=0, waypoints=((0.0, (100.0, 200.0)), (20.0, (140.0, 200.0)))
            ),
        ),
    )
    sensor = SensorConfig(clutter_rate=clutter, fov=REGION)
    if spoofs is None:
        spoofs = (
            ("drift", SpoofConfig(
                spoof_type=SpoofType.DRIFT, injection_window=(5, 15), alpha=2.0, dt_s=1.0
            )),
            ("clean", SpoofConfig(spoof_type=SpoofType.CLEAN, dt_s=1.0)),
        )
    return BenchmarkConfig(
        scenario=scenario,
        sensor=sensor,
        spoof_grid=spoofs,
        trackers=tuple(trackers),
        seeds=tuple(seeds),
        output_dir=out,
    )


def config_payload():
    return {
        "scenario": {
            "duration_s": 20.0,
            "dt_s": 1.0,
            "seed": 0,
            "region": {"x_min": 0, "x_max": 400, "y_min": 0, "y_max": 400},
            "platforms": [
                {"platform_id": 0, "waypoints": [[0.0, [100.0, 200.0]], [20.0, [140.0, 200.0]]]}
            ],
        },
        "sensor": {"clutter_rate": 0.5, "fov": {"x_min": 0, "x_max": 400, "y_min": 0, "y_max": 400}},
        "spoof_grid": [
            {"spoof_type": "drift", "alpha": 2.0, "injection_window": [5, 15]},
            {"spoof_type": "clean"},
        ],
        "trackers": ["gnn"],
        "seeds": [0],
    }


def test_from_dict_rejects_unknown_and_missing_keys():
    payload = config_payload()
    payload["typo"] = 1
    with pytest.raises(ConfigError, match="unknown benchmark keys"):
        BenchmarkConfig.from_dict(payload)
    with pytest.raises(ConfigError, match="missing keys"):
        BenchmarkConfig.from_dict({"scenario": config_payload()["scenario"]})


def test_seed_resolution_forms():
    payload = config_payload()
    payload["seeds"] = {"base_seed": 7, "count": 3}
    cfg = BenchmarkConfig.from_dict(payload)
    assert cfg.seeds == (7, 8, 9)
    payload["seeds"] = [4, 2]
    assert BenchmarkConfig.from_dict(payload).seeds == (4, 2)
    payload["seeds"] = "nope"
    with pytest.raises(ConfigError):
        BenchmarkConfig.from_dict(payload)
    payload["seeds"] = {"count": 0}
    with pytest.raises(ConfigError):
        BenchmarkConfig.from_dict(payload)


def test_spoof_template_defaults():
    payload = config_payload()
    payload["spoof_grid"] = [{"spoof_type": "ghost", "ghost_rate": 2.0, "ghost_mode": "uniform"}]
    cfg = BenchmarkConfig.from_dict(payload)
    [(name, spoof)] = cfg.spoof_grid
    assert name == "ghost"
    # middle 60% of a 20-step scenario
    assert spoof.injection_window == (4, 16)
    # sensor noise and fov flow into ghost defaults
    assert spoof.ghost_sigma_m == cfg.sensor.noise_sigma_m
    assert spoof.ghost_region == cfg.sensor.fov
    assert spoof.dt_s == cfg.scenario.dt_s


def test_spoof_grid_names_must_be_unique():
    payload = config_payload()
    payload["spoof_grid"] = [{"spoof_type": "clean"}, {"spoof_type": "clean"}]
    with pytest.raises(ConfigError, match="duplicate spoof names"):
        BenchmarkConfig.from_dict(payload)


def test_duplicate_trackers_exit_2(tmp_path, capsys):
    payload = config_payload()
    payload["trackers"] = ["gnn", "gnn"]
    assert main(["validate", "--config", str(write_config_file(tmp_path, payload))]) == 2
    assert "config error: duplicate trackers" in capsys.readouterr().err
    # the same through the --trackers override, before any run folder
    path = write_config_file(tmp_path)
    out = tmp_path / "o"
    assert main(["run", "--config", str(path), "--out", str(out), "--trackers", "gnn,gnn"]) == 2
    assert "config error: duplicate trackers" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "name", ["../escaped", "a/b", "..", "tab\there", "average"],
    ids=["parent", "slash", "dotdot", "tab", "reserved-average"],
)
def test_spoof_names_unfit_for_folders_exit_2(tmp_path, capsys, name):
    payload = config_payload()
    payload["spoof_grid"][0]["name"] = name
    path = write_config_file(tmp_path, payload)
    assert main(["validate", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("config error: spoof name")
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "deep" / "out")]) == 2
    assert capsys.readouterr().err.startswith("config error: spoof name")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bench.json"]


def test_unknown_tracker_rejected():
    payload = config_payload()
    payload["trackers"] = ["gnn", "mht"]
    with pytest.raises(ConfigError, match="unknown tracker"):
        BenchmarkConfig.from_dict(payload)


def test_digest_ignores_output_dir_only():
    a = tiny_config(out=None)
    b = tiny_config(out="/somewhere/else")
    assert a.digest() == b.digest()
    c = tiny_config(seeds=(1,))
    assert a.digest() != c.digest()
    assert a.digest() == a.digest()


def test_plan_runs_cardinality_and_ids():
    cfg = tiny_config(trackers=("gnn", "jpda"), seeds=(0, 1))
    specs = plan_runs(cfg)
    assert len(specs) == 2 * 2 * 2
    assert specs[0].run_id == "drift-gnn-s0"
    assert len({s.run_id for s in specs}) == len(specs)


def test_spoof_seed_independent_of_grid_and_tracker():
    wide = tiny_config(trackers=("gnn", "jpda"))
    narrow = tiny_config(
        trackers=("jpda",),
        spoofs=(("drift", wide.spoof_grid[0][1]),),
    )
    wide_drift = {s.run_id: s.spoof.seed for s in plan_runs(wide) if s.spoof_name == "drift"}
    narrow_drift = {s.run_id: s.spoof.seed for s in plan_runs(narrow)}
    # same spoof name and seed -> same derived spoof seed, regardless of
    # which trackers or other spoofs share the grid
    assert wide_drift["drift-jpda-s0"] == narrow_drift["drift-jpda-s0"]
    assert wide_drift["drift-gnn-s0"] == wide_drift["drift-jpda-s0"]


def test_run_benchmark_writes_expected_tree(tmp_path):
    cfg = tiny_config()
    out = run_benchmark(cfg, out_dir=tmp_path / "rep")
    assert (out / "manifest.json").exists()
    for run_id in ("drift-gnn-s0", "clean-gnn-s0"):
        run_dir = out / run_id
        for name in (
            "clean.csv",
            "spoofed.csv",
            "spoof_log.csv",
            "snapshots.jsonl",
            "report.json",
            "manifest.json",
        ):
            assert (run_dir / name).exists(), f"{run_id}/{name}"
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["runs"]) == 2
    assert manifest["config_digest"] == cfg.digest()


def test_jobs_parallel_matches_serial(tmp_path):
    cfg = tiny_config(trackers=("gnn", "jpda"), seeds=(0, 1))
    a = run_benchmark(cfg, out_dir=tmp_path / "serial", jobs=1)
    b = run_benchmark(cfg, out_dir=tmp_path / "parallel", jobs=2)
    for run_dir in sorted(p for p in a.iterdir() if p.is_dir()):
        for f in ("clean.csv", "spoofed.csv", "spoof_log.csv", "snapshots.jsonl", "report.json"):
            left = (run_dir / f).read_bytes()
            right = (b / run_dir.name / f).read_bytes()
            assert left == right, f"{run_dir.name}/{f}"
    # runs of one (spoof, seed) stream execute together, but the manifest
    # lists them in plan order
    planned = [spec.run_id for spec in plan_runs(cfg)]
    for out in (a, b):
        runs = json.loads((out / "manifest.json").read_text())["runs"]
        assert [run["run_id"] for run in runs] == planned


def test_cli_parallel_grid_equals_serial_grid(tmp_path):
    argv = ["run", "--config", str(DEMO_CONFIG), "--seeds", "1", "--spoofs", "ghost,clean"]
    serial, parallel = tmp_path / "serial", tmp_path / "parallel"
    assert main([*argv, "--out", str(serial)]) == 0
    assert main([*argv, "--out", str(parallel), "--jobs", "2"]) == 0
    files = sorted(p.relative_to(serial) for p in serial.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(parallel) for p in parallel.rglob("*") if p.is_file())
    compared = [f for f in files if f.name != "manifest.json"]
    assert len(compared) == 1 + 4 * 9  # comparison.csv + 9 files in each of 4 run folders
    for f in compared:
        assert (serial / f).read_bytes() == (parallel / f).read_bytes(), str(f)
    demo = load_benchmark_config(DEMO_CONFIG)
    cfg = replace(demo, spoof_grid=tuple(e for e in demo.spoof_grid if e[0] in ("ghost", "clean")))
    planned = [spec.run_id for spec in plan_runs(replace(cfg, seeds=(0,)))]
    for out in (serial, parallel):
        runs = json.loads((out / "manifest.json").read_text())["runs"]
        assert [run["run_id"] for run in runs] == planned


@pytest.mark.parametrize("jobs", [1, 2])
def test_every_run_folder_rebuilds_from_its_manifest(tmp_path, jobs):
    # a run manifest is the plan run_group executed, so rebuilding a run
    # from it alone rewrites the folder byte for byte, manifest included;
    # its created_utc is the one time the grid was planned
    cfg = replace(load_benchmark_config(DEMO_CONFIG), seeds=(0,))
    out = run_benchmark(cfg, out_dir=tmp_path / "rep", jobs=jobs)
    runs = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["runs"]
    assert len(runs) == 8
    planned = set()
    for entry in runs:
        run_dir = out / entry["run_id"]
        again = tmp_path / "again" / entry["run_id"]
        manifest = load_record(RunManifest, run_dir / "manifest.json")
        planned.add(manifest.created_utc)
        run_group([manifest], str(again.parent))
        names = sorted(p.name for p in run_dir.iterdir())
        assert names == sorted(p.name for p in again.iterdir())
        assert "manifest.json" in names and len(names) == 6
        for name in names:
            assert (again / name).read_bytes() == (run_dir / name).read_bytes(), again / name
    assert len(planned) == 1


def test_grid_bytes_do_not_depend_on_the_hash_seed(tmp_path):
    # PYTHONHASHSEED reorders str hashes, hence sets; no artifact may follow
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    trees = []
    for hash_seed in ("1", "2"):
        out = tmp_path / hash_seed
        for args in (
            ["run", "--config", str(DEMO_CONFIG), "--out", str(out), "--seeds", "1",
             "--spoofs", "ghost,clean"],
            ["export", "--report", str(out)],
        ):
            result = subprocess.run(
                [sys.executable, "-m", "spoofbench", *args],
                env={**env, "PYTHONHASHSEED": hash_seed}, capture_output=True, text=True,
            )
            assert result.returncode == 0, result.stderr
        files = [p for p in sorted(out.rglob("*")) if p.is_file() and p.name != "manifest.json"]
        trees.append({str(p.relative_to(out)): p.read_bytes() for p in files})
    assert sorted(trees[0]) == sorted(trees[1])
    assert "ghost-jpda-s0/snapshots.jsonl" in trees[0]
    differ = [name for name in trees[0] if trees[0][name] != trees[1][name]]
    assert not differ, f"{len(differ)} of {len(trees[0])} files differ: {differ[:5]}"


def fake_report_dir(tmp_path, drifts):
    """Synthesize a report tree; drifts maps (tracker, spoof) -> list of
    per-seed mean drifts, with None meaning 'leave this run out'."""
    trackers = sorted({t for t, _ in drifts})
    spoofs = sorted({s for _, s in drifts})
    runs = []
    for (tracker, spoof), values in sorted(drifts.items()):
        for seed, value in enumerate(values):
            run_id = f"{spoof}-{tracker}-s{seed}"
            runs.append(
                {"run_id": run_id, "tracker": tracker, "spoof_name": spoof,
                 "spoof_type": spoof, "seed": seed}
            )
            if value is None:
                continue
            run_dir = tmp_path / run_id
            run_dir.mkdir()
            write_report_json(
                run_dir / "report.json",
                RunReport(
                    tracker=tracker,
                    spoof_type=spoof,
                    seed=seed,
                    config_digest="x",
                    mean_drift_m=value,
                    max_drift_m=value,
                    normalized_impact_pct=100.0 * value / 500.0,
                    matched_steps=10,
                    per_platform_drift={},
                    switch_count=0,
                    per_platform_switches={},
                    confusion={},
                    purity_timeline=[],
                    spoof_inclusion_rate=0.0,
                    recovery_rate=1.0,
                    false_association_ratio=0.0,
                ),
            )
    manifest = {
        "config_digest": "x",
        "created_utc": "2000-01-01T00:00:00+00:00",
        "trackers": trackers,
        "spoofs": [{"name": s, "spoof_type": s} for s in spoofs],
        "seeds": list(range(max(len(v) for v in drifts.values()))),
        "runs": runs,
    }
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    return tmp_path


def test_compare_averages_seeds(tmp_path):
    table = compare_trackers(
        fake_report_dir(tmp_path, {("gnn", "drift"): [10.0, 20.0]})
    )
    cell = table.cells[("gnn", "drift")]
    assert cell.drift_m == pytest.approx(15.0)
    assert cell.impact_pct == pytest.approx(3.0)
    assert cell.n_runs == 2
    assert table.tracker_averages["gnn"] == (pytest.approx(15.0), pytest.approx(3.0))


def test_compare_reports_missing_cells(tmp_path):
    table = compare_trackers(
        fake_report_dir(
            tmp_path,
            {("gnn", "drift"): [10.0], ("jpda", "drift"): [None]},
        )
    )
    assert table.missing == ["jpda/drift"]
    assert ("jpda", "drift") not in table.cells


def test_compare_tracker_average_excludes_clean(tmp_path):
    table = compare_trackers(
        fake_report_dir(
            tmp_path,
            {("gnn", "drift"): [30.0], ("gnn", "clean"): [4.0]},
        )
    )
    drift, _ = table.tracker_averages["gnn"]
    assert drift == pytest.approx(30.0)
    # the clean column still gets a cross-tracker average row
    assert table.spoof_averages["clean"][0] == pytest.approx(4.0)


def test_comparison_csv_shape(tmp_path):
    compare_trackers(
        fake_report_dir(
            tmp_path,
            {("gnn", "drift"): [10.0], ("jpda", "drift"): [20.0]},
        )
    )
    lines = (tmp_path / "comparison.csv").read_text().splitlines()
    assert lines[0] == "tracker,spoof_type,drift_m,impact_pct"
    # 2 cells + 2 tracker averages + 1 spoof average
    assert len(lines) == 1 + 5
    assert "gnn,drift,10.0,2.0" in lines


def test_export_writes_plot_files(tmp_path):
    cfg = tiny_config()
    out = run_benchmark(cfg, out_dir=tmp_path / "rep")
    written = export_plot_data(out)
    names = {p.name for p in written}
    assert names == {"drift_matrix.csv", "purity_timeline.csv", "events.csv", "overlay.csv"}
    drift_lines = (out / "drift-gnn-s0" / "drift_matrix.csv").read_text().splitlines()
    # header + one platform row; 20 step columns
    assert len(drift_lines) == 2
    assert drift_lines[0].split(",")[:2] == ["platform_id", "0"]
    assert len(drift_lines[0].split(",")) == 1 + 20


def test_export_window_annotation_rows(tmp_path):
    cfg = tiny_config()
    out = run_benchmark(cfg, out_dir=tmp_path / "rep")
    export_plot_data(out)
    rows = (out / "drift-gnn-s0" / "events.csv").read_text().splitlines()[1:]
    window_ts = sorted(
        int(r.split(",")[0]) for r in rows if r.split(",")[1] == "spoof_window"
    )
    assert window_ts == list(range(5, 16))
    clean_rows = (out / "clean-gnn-s0" / "events.csv").read_text().splitlines()[1:]
    assert all(r.split(",")[1] != "spoof_window" for r in clean_rows)


def test_export_overlay_blocks(tmp_path):
    cfg = tiny_config()
    out = run_benchmark(cfg, out_dir=tmp_path / "rep")
    export_plot_data(out)
    rows = (out / "drift-gnn-s0" / "overlay.csv").read_text().splitlines()[1:]
    kinds = {r.split(",")[0] for r in rows}
    assert kinds == {"truth", "clean_detection", "spoofed_detection", "estimate"}
    truth_rows = [r for r in rows if r.startswith("truth,")]
    assert len(truth_rows) == 20  # one platform, T=20


def _exported_demo_cell(tmp_path_factory, spoof_name, tracker="gnn"):
    """The <spoof_name>-<tracker>-s0 folder of the demo config, run alone and exported."""
    cfg = load_benchmark_config(DEMO_CONFIG)
    cfg = replace(
        cfg,
        spoof_grid=tuple(e for e in cfg.spoof_grid if e[0] == spoof_name),
        trackers=(tracker,),
        seeds=(0,),
    )
    out = run_benchmark(cfg, out_dir=tmp_path_factory.mktemp("demo"))
    export_plot_data(out)
    return out / f"{spoof_name}-{tracker}-s0"


@pytest.fixture(scope="module")
def exported_demo_run(tmp_path_factory):
    """The drift-gnn-s0 folder of the demo config, run alone and exported."""
    run_dir = _exported_demo_cell(tmp_path_factory, "drift")
    return run_dir, json.loads((run_dir / "report.json").read_text())


# sha256 of the report bytes of two exported demo cells: any change to a
# metric, down to one ulp of one matched distance, shows here. The ghost
# cell has steps where tracks compete for a platform. The tracker and the
# matcher do their arithmetic elementwise in a fixed order, never through
# BLAS, so one set holds under every OpenBLAS kernel (CI checks it under
# OPENBLAS_CORETYPE Prescott, Haswell and Zen). Recorded with numpy 2.4 on
# x86_64.
PINNED_REPORTS = {
    "drift": {
        "report.json": "1294108e1d6e685898cdedbedf172b960b7a9b969777b8de8035a5acc58a1ce3",
        "drift_matrix.csv": "73538c57bde035d46346f5820c7ad45c2f3789274ef5bd89e79437ad4cc0f90a",
    },
    "ghost": {
        "report.json": "a83318e5ca9bc7ddc3e20840bec2e95a8868c5abfc360e92704f1c8ddadd9585",
        "drift_matrix.csv": "404bc471c747adc39d9729f0438e11a249d4ca01c5b30944c9166b0fbbc5e12e",
    },
}


def test_report_bytes_pinned(exported_demo_run, tmp_path_factory):
    cells = {"drift": exported_demo_run[0], "ghost": _exported_demo_cell(tmp_path_factory, "ghost")}
    for spoof_name, run_dir in cells.items():
        for name, digest in PINNED_REPORTS[spoof_name].items():
            got = hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
            assert got == digest, f"{spoof_name}/{name}"


# sha256 of the export files that PINNED_REPORTS leaves out, and of a
# JPDA cell, whose association weights are summed: overlay.csv carries
# the detection rows read back from clean.csv and spoofed.csv. Recorded
# like PINNED_REPORTS.
PINNED_EXPORTS = {
    ("drift", "gnn"): {
        "overlay.csv": "82ee77ab7904dd5eddd6d6ff6cd29e5185aa4d1820c88a1cc29001965307bf7f",
        "events.csv": "0be9d1c83a91d306b0c90f358e75b74b35e4451d0f6a97ff1704d832780bba90",
        "purity_timeline.csv": "9f7507a259a7f6d9ca451dcc44a11f766bc0cb6e6dd9b525c9fd542c03733c95",
    },
    ("ghost", "gnn"): {
        "overlay.csv": "21e89653eb01ca587827b614e6ae905dbf386972a793c42fa01cd695d4581bc1",
        "events.csv": "0900386b2f6409f80c107b66c4ca8501aa0079ef5763bfea286755392063bde9",
        "purity_timeline.csv": "8421e78d3e5dae00ad950558b3c0086d3f9842e72b060a8afe1ed3eb2f97a147",
    },
    ("ghost", "jpda"): {
        "report.json": "e62d056e1578f8f1b7ab78f1fb373635fa8dac1a58baf5c245021a110d489b53",
        "drift_matrix.csv": "5d69fc93b60e32493edc1a852327615df7757ff3c233c4c73c175dcf1dabfce0",
        "overlay.csv": "7adbafa6f20ad0cf51d6a4ef60f2386937bb3865d1ca27a1c42b1e4b01b70507",
        "events.csv": "0293e14d4b00977a7a3c93e6ffd7a31ceee085a214cb267b19304768de6ab3a5",
        "purity_timeline.csv": "120210996f37d43db5ce1a81242ab4961f208e8018bba4b274e09584983ee9ce",
    },
}


@pytest.mark.parametrize("cell", sorted(PINNED_EXPORTS), ids="-".join)
def test_export_bytes_pinned(exported_demo_run, tmp_path_factory, cell):
    spoof_name, tracker = cell
    if cell == ("drift", "gnn"):
        run_dir = exported_demo_run[0]
    else:
        run_dir = _exported_demo_cell(tmp_path_factory, spoof_name, tracker)
    for name, digest in PINNED_EXPORTS[cell].items():
        got = hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
        assert got == digest, f"{spoof_name}-{tracker}/{name}"


# sha256 of comparison.csv of the demo grid with seed 0 alone: every
# drift and mean on the path to the table. Recorded like PINNED_REPORTS.
PINNED_COMPARISON = "a844d74a2f208882dc0b57bc9a4fc5decc32548c1d624e44109936e6f2f6a0f0"


def test_comparison_bytes_pinned(tmp_path):
    cfg = replace(load_benchmark_config(DEMO_CONFIG), seeds=(0,))
    out = run_benchmark(cfg, out_dir=tmp_path / "rep")
    compare_trackers(out)
    got = hashlib.sha256((out / "comparison.csv").read_bytes()).hexdigest()
    assert got == PINNED_COMPARISON


def test_every_run_rescores_from_its_own_files(tmp_path):
    # report.json is what compute_run_report makes of the run's written
    # snapshots.jsonl and its re-simulated spoofed stream, for both
    # trackers: a gnn row's consumption reads back from its score
    cfg = replace(load_benchmark_config(DEMO_CONFIG), seeds=(0,))
    out = run_benchmark(cfg, out_dir=tmp_path / "rep")
    run_dirs = sorted(path.parent for path in out.glob("*/snapshots.jsonl"))
    assert {load_record(RunManifest, d / "manifest.json").tracker for d in run_dirs} == {
        "gnn", "jpda"
    }
    for run_dir in run_dirs:
        m = load_record(RunManifest, run_dir / "manifest.json")
        truth = build_scenario(m.scenario)
        spoofed = apply_spoof(generate_clean_run(truth, m.sensor, seed=m.seed), m.spoof)
        rows = read_snapshots_jsonl(run_dir / "snapshots.jsonl", m.include_beta)
        report = compute_run_report(
            rows, truth, spoofed, m.tracker, m.spoof_name, m.seed, m.config_digest,
            m.sensor.noise_sigma_m,
        )
        write_report_json(tmp_path / "again.json", report)
        again = (tmp_path / "again.json").read_bytes()
        assert again == (run_dir / "report.json").read_bytes(), run_dir.name


# sha256 of comparison.csv of the demo grid with seeds (0, 1, 2), whole
# and with drift-gnn-s1/report.json deleted: each cell a mean over seeds,
# and one cell over the two seeds left. Recorded like PINNED_REPORTS.
PINNED_SEED_COMPARISONS = {
    "whole": "39f950fd17ce20dc009e58b562ee18176fdd8b7c023fadf9c2821832e9c314b5",
    "without drift-gnn-s1": "c3535daf9ea8084686f09dbd542fb4a5b0bbedb9b2d4951c15bba4871ddd017c",
}


def test_seed_averaged_comparison_bytes_pinned(tmp_path):
    cfg = replace(load_benchmark_config(DEMO_CONFIG), seeds=(0, 1, 2))
    out = run_benchmark(cfg, out_dir=tmp_path / "rep")
    got = {}
    compare_trackers(out)
    got["whole"] = hashlib.sha256((out / "comparison.csv").read_bytes()).hexdigest()
    (out / "drift-gnn-s1" / "report.json").unlink()
    compare_trackers(out)
    got["without drift-gnn-s1"] = hashlib.sha256((out / "comparison.csv").read_bytes()).hexdigest()
    assert got == PINNED_SEED_COMPARISONS


def test_drift_matrix_rows_are_the_report_samples(exported_demo_run):
    run_dir, report = exported_demo_run
    with open(run_dir / "drift_matrix.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert [row[0] for row in rows] == list(report["per_platform_drift"])
    for row in rows:
        samples = [float(cell) for cell in row[1:] if cell]
        want = report["per_platform_drift"][row[0]]
        assert len(samples) == want["matched_steps"]
        assert float(np.mean(samples)) == want["mean_m"]
        assert max(samples) == want["max_m"]


def test_switch_events_match_report_counts(exported_demo_run):
    run_dir, report = exported_demo_run
    with open(run_dir / "events.csv", encoding="utf-8", newline="") as fh:
        switches = [r["platform_id"] for r in csv.DictReader(fh) if r["kind"] == "switch"]
    counts = report["per_platform_switches"]
    assert sum(counts.values()) > 0
    assert {pid: switches.count(pid) for pid in counts} == counts
    assert len(switches) == report["switch_count"]


def test_load_benchmark_config_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_benchmark_config(bad)


def test_default_config_shape():
    cfg = replace(load_benchmark_config(DEMO_CONFIG), seeds=(0,))
    names = [name for name, _ in cfg.spoof_grid]
    assert names == ["drift", "ghost", "mirror", "clean"]
    assert cfg.trackers == ("gnn", "jpda")
    assert len(plan_runs(cfg)) == 8


# CLI surface


def write_config_file(tmp_path, payload=None):
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(payload or config_payload()))
    return path


def test_cli_validate_ok(tmp_path, capsys):
    path = write_config_file(tmp_path)
    assert main(["validate", "--config", str(path)]) == 0
    assert "config ok" in capsys.readouterr().out


def test_cli_config_error_exit_2(tmp_path, capsys):
    payload = config_payload()
    del payload["trackers"]
    path = write_config_file(tmp_path, payload)
    assert main(["validate", "--config", str(path)]) == 2
    assert "config error" in capsys.readouterr().err


def set_path(payload, path, value):
    """Set the value at a config path such as scenario.platforms[3].stationary,
    creating a missing object on the way."""
    keys = [int(k) if k.isdigit() else k for k in re.findall(r"[^.\[\]]+", path)]
    node = payload
    for key in keys[:-1]:
        if isinstance(key, str):
            node = node.setdefault(key, {})
        else:
            node = node[key]
    node[keys[-1]] = value


def demo_section(name, **changes):
    """A section of the demo config, with some of its keys changed."""
    return {**json.loads(DEMO_CONFIG.read_text())[name], **changes}


def long_scenario(duration_s):
    """The demo scenario lasting duration_s, its waypoints ending then."""
    scenario = demo_section("scenario", duration_s=duration_s)
    for platform in scenario["platforms"]:
        platform["waypoints"][-1][0] = duration_s
    return scenario


# (config path, bad value, path the error must name) on the demo config
BAD_VALUES = [
    pytest.param("tracker_params.gamma", float("nan"), "tracker_params.gamma", id="gamma-nan"),
    pytest.param("tracker_params.q", float("inf"), "tracker_params.q", id="q-inf"),
    pytest.param(
        "tracker_params.confirm_hits", "abc", "tracker_params.confirm_hits", id="count-string"
    ),
    pytest.param(
        "tracker_params.confirm_window", 2.5, "tracker_params.confirm_window", id="count-fraction"
    ),
    pytest.param(
        "tracker_params.delete_misses", float("inf"), "tracker_params.delete_misses",
        id="count-inf",
    ),
    pytest.param(
        "tracker_params.confirm_window", 10**20, "tracker_params", id="confirm_window-huge"
    ),
    pytest.param(
        "tracker_params.clutter_density", True, "tracker_params.clutter_density", id="bool"
    ),
    pytest.param("tracker_params.v_max_mps", 10**400, "tracker_params.v_max_mps", id="overflow"),
    pytest.param("tracker_params", [1], "tracker_params", id="not-an-object"),
    pytest.param("spoof_grid[0].alpha", "x", "spoof_grid[0].alpha", id="spoof_grid[0].alpha"),
    pytest.param(
        "spoof_grid[1].injection_window", [5, "z"], "spoof_grid[1].injection_window[1]",
        id="spoof_grid[1].injection_window",
    ),
    pytest.param("seeds", ["a"], "seeds[0]", id="seeds"),
    pytest.param("seeds.count", "3", "seeds.count", id="seeds.count"),
    pytest.param(
        "spoof_grid[0].target_platform_ids", "ab", "spoof_grid[0].target_platform_ids",
        id="spoof_grid[0].target_platform_ids",
    ),
    pytest.param(
        "scenario.platforms[0].waypoints[1][1][0]", 10**400,
        "scenario.platforms[0].waypoints[1][1][0]",
        id="scenario.platforms[0].waypoints",
    ),
    pytest.param(
        "sensor.noise_sigma_m", float("nan"), "sensor.noise_sigma_m", id="sensor.noise_sigma_m"
    ),
    pytest.param(
        "scenario.platforms[3].stationary", "false", "scenario.platforms[3].stationary",
        id="scenario.platforms[3].stationary",
    ),
    pytest.param("scenario.seed", 2.7, "scenario.seed", id="scenario.seed"),
    pytest.param("output_dir", 5, "output_dir", id="output_dir"),
    # tracker params derive p_detect from the sensor, and they need p_detect > 0
    pytest.param("sensor.p_detect", 0, "tracker_params", id="sensor.p_detect"),
    # finite rates that numpy's Poisson sampler rejects, or that would
    # draw a billion detections per frame
    pytest.param("sensor.clutter_rate", 1e19, "sensor", id="sensor.clutter_rate"),
    pytest.param("spoof_grid[1].ghost_rate", 1e9, "spoof_grid[1]", id="spoof_grid[1].ghost_rate"),
    # the scenario clock sets both; an entry of its own used to be replaced
    pytest.param("tracker_params.dt_s", 7.0, "tracker_params.dt_s", id="tracker_params.dt_s"),
    pytest.param("spoof_grid[0].dt_s", 3.0, "spoof_grid[0].dt_s", id="spoof_grid[0].dt_s"),
    # finite values past a bound, which used to validate and then fail the
    # run with a traceback: an innovation determinant or a state that
    # overflows, a miss mass that overflows, a region too wide to sample
    pytest.param(
        "sensor.noise_sigma_m", 1e150, "sensor: noise_sigma_m", id="noise_sigma_m-det-overflow"
    ),
    pytest.param(
        "sensor.noise_sigma_m", 1e200, "sensor: noise_sigma_m", id="noise_sigma_m-overflow"
    ),
    pytest.param(
        "spoof_grid[1].ghost_sigma_m", 1e200, "spoof_grid[1]: ghost_sigma_m",
        id="ghost_sigma_m-overflow",
    ),
    pytest.param(
        "tracker_params.v_max_mps", 1e200, "tracker_params: v_max_mps", id="v_max_mps-overflow"
    ),
    pytest.param("tracker_params.q", 1e300, "tracker_params: q", id="q-overflow"),
    pytest.param(
        "tracker_params", {"clutter_density": 1e300, "p_detect": 1e-10},
        "tracker_params: clutter_density", id="miss-mass-overflow",
    ),
    pytest.param(
        "sensor.fov", demo_section("sensor")["fov"] | {"x_min": -1e308, "x_max": 1e308},
        "sensor.fov: x_min", id="fov-too-wide",
    ),
    # more steps than scenario.MAX_STEPS: a step count that used to
    # overflow int() in validate, and one that used to exhaust memory in run
    pytest.param(
        "scenario", demo_section("scenario", duration_s=1e308, dt_s=0.1),
        "scenario: duration_s", id="steps-infinite",
    ),
    pytest.param("scenario", long_scenario(1e13), "scenario: duration_s", id="steps-too-many"),
]


@pytest.mark.parametrize("path,value,named", BAD_VALUES)
def test_cli_validate_rejects_bad_tracker_params(tmp_path, capsys, path, value, named):
    payload = json.loads(DEMO_CONFIG.read_text())
    set_path(payload, path, value)
    config = write_config_file(tmp_path, payload)
    assert main(["validate", "--config", str(config)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {named}")


# fields that scale a length, a speed or a density, with the largest value
# each may take: a config bound, or the float maximum where none applies
SCALED_FIELDS = {
    "sensor.noise_sigma_m": MAX_SIGMA_M,
    "spoof_grid[0].ghost_sigma_m": MAX_SIGMA_M,
    "tracker_params.v_max_mps": MAX_SPEED_MPS,
    "tracker_params.q": MAX_Q,
    "tracker_params.clutter_density": sys.float_info.max,
    "sensor.fov": MAX_COORDINATE_M,  # x in [-value, value]
}
SCALES = [1e-300, 1e-6, 1.0, 1e6, 1e50, 1e100, 1e150, 1e200, 1e300]


def scaled_values(bound):
    # the bound, and the next float above it where that is finite
    above = math.nextafter(bound, math.inf)
    return SCALES + [bound] + ([above] if math.isfinite(above) else [])


@pytest.mark.parametrize(
    "path,value",
    [(path, value) for path, bound in SCALED_FIELDS.items() for value in scaled_values(bound)],
)
def test_a_config_that_validates_runs(tmp_path, capsys, path, value):
    # the demo config cut to one seed and 10 steps, with a near_track
    # ghost spoof and clean, and one field scaled
    payload = json.loads(DEMO_CONFIG.read_text())
    payload.update(seeds=[0], spoof_grid=[payload["spoof_grid"][1], payload["spoof_grid"][3]])
    payload["scenario"]["duration_s"] = 10.0
    if path == "sensor.fov":
        value = payload["sensor"]["fov"] | {"x_min": -value, "x_max": value}
    set_path(payload, path, value)
    config = write_config_file(tmp_path, payload)
    validated = main(["validate", "--config", str(config)])
    assert validated in (0, 2), capsys.readouterr().err
    if validated == 0:
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 0


def test_grid_entry_seed_exits_2(tmp_path, capsys):
    # each run's spoof seed derives from its grid seed, which replaced
    # an entry's own
    payload = json.loads(DEMO_CONFIG.read_text())
    payload["spoof_grid"][1]["seed"] = 12345
    config = write_config_file(tmp_path, payload)
    out = str(tmp_path / "o")
    for argv in (["validate"], ["run", "--out", out, "--seeds", "1", "--spoofs", "ghost"]):
        assert main([*argv, "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: spoof_grid[1].seed must not be set")
    assert not (tmp_path / "o").exists()


# keys no config takes: the trackers draw no random numbers, and sensing
# addresses its streams by streams.TAG_SENSE
@pytest.mark.parametrize(
    "section,key,value", [("tracker_params", "p_birth", 1.0), ("sensor", "seed_stream_tag", 1)]
)
def test_removed_stream_keys_exit_2(tmp_path, capsys, section, key, value):
    payload = json.loads(DEMO_CONFIG.read_text())
    payload.setdefault(section, {})[key] = value
    config = write_config_file(tmp_path, payload)
    out = str(tmp_path / "o")
    for argv in (["validate"], ["run", "--out", out, "--seeds", "1", "--spoofs", "clean"]):
        assert main([*argv, "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: unknown {section} keys: [{key!r}]")
    assert not (tmp_path / "o").exists()


# finite spoofs that pass validate but put a detection at a non-finite
# position: an offset or reflection past the float range, and a ghost
# annulus whose squared radius overflows
NON_FINITE_SPOOFS = [
    pytest.param({"spoof_type": "drift", "alpha": 1e308}, id="drift"),
    pytest.param({"spoof_type": "mirror", "mirror_x0": 1e308}, id="mirror"),
    pytest.param(
        {"spoof_type": "ghost", "ghost_rate": 6.0, "ghost_mode": "near_track",
         "ghost_radius_m": 1e200},
        id="ghost",
    ),
]


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("spoof", NON_FINITE_SPOOFS)
def test_cli_run_non_finite_spoof_exits_2(tmp_path, capfd, spoof, jobs):
    payload = json.loads(DEMO_CONFIG.read_text(encoding="utf-8"))
    payload.update(spoof_grid=[spoof], trackers=["gnn"])
    path = write_config_file(tmp_path, payload)
    assert main(["validate", "--config", str(path)]) == 0
    capfd.readouterr()
    out = str(tmp_path / "o")
    assert main(["run", "--config", str(path), "--out", out, "--seeds", "2", "--jobs", jobs]) == 2
    err = capfd.readouterr().err
    assert err.startswith(f"config error: {spoof['spoof_type']} spoof puts a detection")
    assert "non-finite position at step" in err
    assert "Traceback" not in err


def test_grid_size_is_bounded_before_building(tmp_path, capsys):
    payload = config_payload()
    payload["seeds"] = {"base_seed": 0, "count": 10**12}
    with pytest.raises(ConfigError, match="exceeds the limit"):
        BenchmarkConfig.from_dict(payload)
    # an empty grid must not make the bound 0 x count and let the seed
    # range be built before the empty grid is rejected
    for emptied in ("spoof_grid", "trackers"):
        with pytest.raises(ConfigError, match="exceeds the limit"):
            BenchmarkConfig.from_dict({**payload, emptied: []})
    path = write_config_file(tmp_path)
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "o"), "--seeds", str(10**12)])
    assert code == 2
    assert "exceeds the limit" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_worker_count_is_bounded_by_runs_and_cpus():
    huge = 10**12
    assert worker_count(huge, 24, 2) == 2
    assert worker_count(huge, 3, 64) == 3
    assert worker_count(huge, huge, None) == 1
    assert worker_count(4, 24, 64) == 4
    assert worker_count(1, 24, 64) == 1
    assert worker_count(huge, 0, 64) == 1


def test_cli_missing_file_exit_3(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "absent.json"), "--out", str(tmp_path / "o")]) == 3
    assert "i/o error" in capsys.readouterr().err


def test_cli_run_then_compare_and_export(tmp_path, capsys):
    path = write_config_file(tmp_path)
    out = tmp_path / "rep"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "wrote 2 runs" in stdout
    assert (out / "comparison.csv").exists()
    assert (out / "drift-gnn-s0" / "overlay.csv").exists()
    assert main(["compare", "--report", str(out)]) == 0
    assert main(["export", "--report", str(out)]) == 0


@pytest.fixture(scope="module")
def one_run_report(tmp_path_factory):
    """A one-run report directory (drift, gnn, seed 0) to corrupt copies of."""
    cfg = tiny_config(spoofs=tiny_config().spoof_grid[:1])
    return run_benchmark(cfg, out_dir=tmp_path_factory.mktemp("one") / "rep")


def _rename_key(report, where, old, new):
    report[where] = {new if k == old else k: v for k, v in report[where].items()}


# (case, edit of the parsed report or None for truncation, named in the error)
MALFORMED_REPORTS = [
    ("missing-key", lambda r: r.pop("purity_timeline"), "purity_timeline"),
    ("unknown-key", lambda r: r.update(extra=1), "extra"),
    ("platform-key-x", lambda r: _rename_key(r, "per_platform_drift", "0", "x"),
     "per_platform_drift key 'x'"),
    ("platform-key-01", lambda r: _rename_key(r, "per_platform_switches", "0", "01"),
     "per_platform_switches key '01'"),
    ("purity-two-items", lambda r: r["purity_timeline"][0].pop(), "purity_timeline[0]"),
    ("float-true", lambda r: r.update(recovery_rate=True), "recovery_rate"),
    ("float-nan", lambda r: r.update(spoof_inclusion_rate=float("nan")), "spoof_inclusion_rate"),
    ("truncated", None, "invalid JSON"),
]


@pytest.mark.parametrize(
    "edit,named", [c[1:] for c in MALFORMED_REPORTS], ids=[c[0] for c in MALFORMED_REPORTS]
)
def test_malformed_report_exits_2(tmp_path, capsys, one_run_report, edit, named):
    out = tmp_path / "rep"
    shutil.copytree(one_run_report, out)
    report_file = out / "drift-gnn-s0" / "report.json"
    text = report_file.read_text(encoding="utf-8")
    if edit is None:
        text = text[: len(text) // 2]
    else:
        report = json.loads(text)
        edit(report)
        text = json.dumps(report)
    report_file.write_text(text, encoding="utf-8")
    for command in ("compare", "export"):
        assert main([command, "--report", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert str(report_file) in err
        assert named in err


@pytest.mark.parametrize(
    "name,commands",
    [("report.json", ("compare", "export")), ("manifest.json", ("export",))],
)
def test_file_of_another_config_exits_2(tmp_path, capsys, one_run_report, name, commands):
    # the same cell of a grid whose drift alpha differs: a copied file
    # would pass every other check
    [(spoof_name, spoof)] = tiny_config().spoof_grid[:1]
    other = tiny_config(spoofs=((spoof_name, replace(spoof, alpha=3.0)),))
    other_out = run_benchmark(other, out_dir=tmp_path / "other")
    out = tmp_path / "rep"
    shutil.copytree(one_run_report, out)
    target = out / "drift-gnn-s0" / name
    shutil.copyfile(other_out / "drift-gnn-s0" / name, target)
    for command in commands:
        assert main([command, "--report", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert str(target) in err
        assert "config_digest" in err


@pytest.fixture(scope="module")
def seeded_report(tmp_path_factory):
    """A two-tracker, two-spoof, two-seed report directory, exported."""
    cfg = tiny_config(trackers=("gnn", "jpda"), seeds=(0, 1))
    out = run_benchmark(cfg, out_dir=tmp_path_factory.mktemp("seeded") / "rep")
    compare_trackers(out)
    export_plot_data(out)
    return out


@pytest.mark.parametrize(
    "name,commands",
    [("report.json", ("compare", "export")), ("manifest.json", ("export",))],
)
@pytest.mark.parametrize(
    "source,named",
    [("drift-gnn-s0", "seed"), ("drift-jpda-s1", "tracker"), ("clean-gnn-s1", "spoof_")],
)
def test_file_of_another_run_of_the_grid_exits_2(
    tmp_path, capsys, seeded_report, name, commands, source, named
):
    # both files carry the grid's config digest, so only the run's
    # identity can tell the copy
    out = tmp_path / "rep"
    shutil.copytree(seeded_report, out)
    target = out / "drift-gnn-s1" / name
    shutil.copyfile(out / source / name, target)
    for command in commands:
        assert main([command, "--report", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {target}: {named}")


def _compare_lines(capsys, out):
    assert main(["compare", "--report", str(out)]) == 0
    return capsys.readouterr().out.splitlines()


def test_compare_lists_runs_left_out_of_a_mean(tmp_path, capsys, seeded_report):
    out = tmp_path / "rep"
    shutil.copytree(seeded_report, out)
    complete = _compare_lines(capsys, out)
    assert not [line for line in complete if line.startswith(("left out", "missing"))]
    (out / "drift-gnn-s1" / "report.json").unlink()
    lines = _compare_lines(capsys, out)
    assert lines[-1] == "left out: drift-gnn-s1 (no report.json)"
    assert lines[:-1] != complete
    assert len(lines) == len(complete) + 1
    # the cell is the one seed left
    table = compare_trackers(out)
    assert table.cells[("gnn", "drift")].n_runs == 1
    assert table.left_out == [("drift-gnn-s1", "no report.json")]


def test_a_cell_with_no_run_left_stays_missing(tmp_path, capsys, seeded_report):
    out = tmp_path / "rep"
    shutil.copytree(seeded_report, out)
    (out / "drift-gnn-s1" / "report.json").unlink()
    report_file = out / "drift-gnn-s0" / "report.json"
    report = json.loads(report_file.read_text(encoding="utf-8"))
    report["mean_drift_m"] = None
    report_file.write_text(json.dumps(report), encoding="utf-8")
    lines = _compare_lines(capsys, out)
    assert lines[-3:] == [
        "missing cell: gnn/drift",
        "left out: drift-gnn-s0 (no matched step)",
        "left out: drift-gnn-s1 (no report.json)",
    ]
    assert not any(line.startswith("gnn        drift ") for line in lines)


def _drop(key):
    return lambda d: d.pop(key)


# (case, manifest relative to the report dir, edit, commands that read it,
# named in the error)
MALFORMED_MANIFESTS = [
    ("top-missing-runs", "manifest.json", _drop("runs"), ("compare", "export"), "runs"),
    ("top-bad-tracker", "manifest.json", lambda m: m.update(trackers=[1]),
     ("compare", "export"), "trackers[0]"),
    ("top-bad-spoof-type", "manifest.json", lambda m: m["runs"][0].update(spoof_type="x"),
     ("compare", "export"), "runs[0].spoof_type"),
    ("top-run-tracker-outside-grid", "manifest.json", lambda m: m.update(trackers=["jpda"]),
     ("compare", "export"), "runs[0].tracker 'gnn' is not in the grid"),
    ("top-run-spoof-outside-grid", "manifest.json", lambda m: m.update(spoofs=[]),
     ("compare", "export"), "runs[0].spoof_name 'drift' is not in the grid"),
    ("top-run-seed-outside-grid", "manifest.json", lambda m: m["runs"][0].update(seed=1),
     ("compare", "export"), "runs[0].seed 1 is not in the grid"),
    ("top-run-listed-twice", "manifest.json", lambda m: m["runs"].append(m["runs"][0]),
     ("compare", "export"), "runs[1]: 'drift-gnn-s0' is listed twice"),
    ("top-cell-seed-listed-twice", "manifest.json",
     lambda m: m["runs"].append(dict(m["runs"][0], run_id="again")),
     ("compare", "export"), "runs[1]: ('gnn', 'drift', 0) is listed twice"),
    # the index lists runs; their results live in each report.json only
    ("top-run-keeps-its-drift", "manifest.json", lambda m: m["runs"][0].update(mean_drift_m=1.0),
     ("compare", "export"), "unknown runs[0] keys: ['mean_drift_m']"),
    ("run-missing-spoof", "drift-gnn-s0/manifest.json", _drop("spoof"), ("export",), "spoof"),
    ("run-bad-params", "drift-gnn-s0/manifest.json",
     lambda m: m["tracker_params"].update(q="x"), ("export",), "tracker_params.q"),
    # a spoof_type must be the type of the spoof it names
    ("top-run-spoof-type-not-its-spoof", "manifest.json",
     lambda m: m["runs"][0].update(spoof_type="mirror"), ("compare", "export"),
     "runs[0].spoof_type 'mirror' is not the 'drift' of spoof 'drift'"),
    ("run-spoof-type-not-its-spoof", "drift-gnn-s0/manifest.json",
     lambda m: m.update(spoof_type="ghost"), ("export",),
     "spoof_type 'ghost' is not the 'drift' of its spoof"),
    # each grid list names an entry once, as in the config
    ("top-tracker-listed-twice", "manifest.json", lambda m: m["trackers"].append("gnn"),
     ("compare", "export"), "duplicate trackers: ['gnn', 'gnn']"),
    ("top-seed-listed-twice", "manifest.json", lambda m: m["seeds"].append(0),
     ("compare", "export"), "duplicate seeds: [0, 0]"),
    ("top-spoof-listed-twice", "manifest.json", lambda m: m["spoofs"].append(m["spoofs"][0]),
     ("compare", "export"), "duplicate spoof names: ['drift', 'drift']"),
    ("top-spoof-name-of-two-types", "manifest.json",
     lambda m: m["spoofs"].append(dict(m["spoofs"][0], spoof_type="mirror")),
     ("compare", "export"), "duplicate spoof names: ['drift', 'drift']"),
]


@pytest.mark.parametrize(
    "manifest,edit,commands,named",
    [c[1:] for c in MALFORMED_MANIFESTS],
    ids=[c[0] for c in MALFORMED_MANIFESTS],
)
def test_malformed_manifest_exits_2(
    tmp_path, capsys, one_run_report, manifest, edit, commands, named
):
    out = tmp_path / "rep"
    shutil.copytree(one_run_report, out)
    manifest_file = out / manifest
    payload = json.loads(manifest_file.read_text(encoding="utf-8"))
    edit(payload)
    manifest_file.write_text(json.dumps(payload), encoding="utf-8")
    for command in commands:
        assert main([command, "--report", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert str(manifest_file) in err
        assert named in err


def test_run_manifest_of_another_spoof_type_exits_2(tmp_path, capsys, one_run_report):
    # an index that calls the drift spoof a mirror spoof, consistently,
    # no longer lists the run whose manifest says drift
    out = tmp_path / "rep"
    shutil.copytree(one_run_report, out)
    index = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    index["spoofs"][0]["spoof_type"] = index["runs"][0]["spoof_type"] = "mirror"
    (out / "manifest.json").write_text(json.dumps(index), encoding="utf-8")
    assert main(["export", "--report", str(out)]) == 2
    run_manifest = out / "drift-gnn-s0" / "manifest.json"
    assert capsys.readouterr().err == (
        f"config error: {run_manifest}: spoof_type is 'drift', manifest.json lists 'mirror'\n"
    )


@pytest.mark.parametrize("run_id", ["../outside", "a/b", ".."])
def test_run_id_unfit_for_a_folder_exits_2(tmp_path, capsys, one_run_report, run_id):
    out = tmp_path / "rep"
    shutil.copytree(one_run_report, out)
    # a complete run folder next to the report directory, for ../outside
    shutil.copytree(out / "drift-gnn-s0", tmp_path / "outside")
    manifest_file = out / "manifest.json"
    payload = json.loads(manifest_file.read_text(encoding="utf-8"))
    payload["runs"][0]["run_id"] = run_id
    manifest_file.write_text(json.dumps(payload), encoding="utf-8")
    for command in ("compare", "export"):
        assert main([command, "--report", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {manifest_file}: runs[0]: run_id {run_id!r}")
    assert not (tmp_path / "outside" / "drift_matrix.csv").exists()
    assert not (out / "comparison.csv").exists()


def _edit_row(key, value):
    return lambda row: row.update({key: value})


@pytest.fixture(scope="module")
def two_tracker_report(tmp_path_factory):
    """A report directory of two runs on one stream: drift-gnn-s0, whose
    snapshot rows have no beta key, and drift-jpda-s0, whose rows do."""
    cfg = tiny_config(trackers=("gnn", "jpda"), spoofs=tiny_config().spoof_grid[:1])
    return run_benchmark(cfg, out_dir=tmp_path_factory.mktemp("two") / "rep")


# (case, tracker of the damaged run, edit of the third row, a line
# inserted before it, or None for a file cut inside its second row, named
# in the error); NaN and Infinity are written as bare tokens, and HUGE
# becomes 1e999, which json reads as inf. The third jpda row has a score
# and a detection.
MALFORMED_SNAPSHOTS = [
    ("truncated", "gnn", None, "line 2"),
    ("nan-token", "gnn", _edit_row("x", float("nan")), "NaN"),
    ("infinity-token", "gnn", _edit_row("score", float("inf")), "Infinity"),
    ("huge-number", "gnn", _edit_row("vy", "HUGE"), "vy must be finite"),
    ("missing-key", "gnn", _drop("x"), "missing keys: ['x']"),
    ("unknown-key", "gnn", _edit_row("extra", 1), "unknown row keys: ['extra']"),
    ("string-number", "gnn", _edit_row("y", "1.0"), "y must be a number"),
    ("bool-number", "gnn", _edit_row("vx", True), "vx must be a number"),
    ("string-score", "gnn", _edit_row("score", "0.5"), "score must be a number"),
    ("fractional-t", "gnn", _edit_row("t", 1.5), "t must be a whole number"),
    ("unknown-status", "gnn", _edit_row("status", "lost"), "status must be one of"),
    ("string-beta", "jpda", _edit_row("beta", {"miss": "x"}), "beta.miss must be a number"),
    ("beta-without-miss", "jpda", _edit_row("beta", {"3": 0.5}), "beta missing keys: ['miss']"),
    ("beta-non-integer-key", "jpda", _edit_row("beta", {"miss": 0.5, "x": 0.5}),
     "beta key 'x' must be a decimal integer"),
    # the reader knows from the run's tracker whether rows carry beta,
    # so neither row can pass for the other tracker's
    ("jpda-row-without-beta", "jpda", _drop("beta"), "row missing keys: ['beta']"),
    ("gnn-row-with-beta", "gnn", _edit_row("beta", {"miss": 0.5}), "unknown row keys: ['beta']"),
    ("blank-line", "gnn", "\n", "Expecting value"),
    ("whitespace-line", "gnn", "   \n", "Expecting value"),
]


@pytest.mark.parametrize(
    "tracker,edit,named",
    [c[1:] for c in MALFORMED_SNAPSHOTS],
    ids=[c[0] for c in MALFORMED_SNAPSHOTS],
)
def test_malformed_snapshots_exits_2(tmp_path, capsys, two_tracker_report, tracker, edit, named):
    out = tmp_path / "rep"
    shutil.copytree(two_tracker_report, out)
    snapshots_file = out / f"drift-{tracker}-s0" / "snapshots.jsonl"
    lines = snapshots_file.read_text(encoding="utf-8").splitlines(keepends=True)
    if edit is None:
        lines[1:] = [lines[1][:10]]
    elif isinstance(edit, str):
        lines.insert(2, edit)
    else:
        row = json.loads(lines[2])
        edit(row)
        lines[2] = json.dumps(row).replace('"HUGE"', "1e999") + "\n"
    snapshots_file.write_text("".join(lines), encoding="utf-8")
    assert main(["export", "--report", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert f"{snapshots_file}: line {2 if edit is None else 3}:" in err
    assert named in err


def _edit_cell(column, value):
    def edit(lines):
        header = lines[0].rstrip("\n").split(",")
        cells = lines[2].rstrip("\n").split(",")
        cells[header.index(column)] = value
        lines[2] = ",".join(cells) + "\n"
    return edit


def _cut_mid_row(lines):
    lines[2:] = [lines[2][:12]]


def _extra_cell(lines):
    lines[2] = lines[2].rstrip("\n") + ",7\n"


def _clean_row_without_truth_id(lines):
    row = next(i for i, line in enumerate(lines) if ",clean," in line)
    lines[row] = lines[row].rstrip("\n").rsplit(",", 1)[0] + ",\n"
    return row + 1


# (case, file, edit of its lines that returns the number of the edited
# line, or None for line 3, named in the error)
MALFORMED_DETECTIONS = [
    ("non-numeric-x", "clean.csv", _edit_cell("x", "abc"), "x must be a finite number, got 'abc'"),
    ("nan-x", "spoofed.csv", _edit_cell("x", "NaN"), "x must be a finite number, got 'NaN'"),
    ("inf-y", "clean.csv", _edit_cell("y", "inf"), "y must be a finite number, got 'inf'"),
    ("huge-r", "spoofed.csv", _edit_cell("r_xx", "1e999"), "r_xx must be a finite number"),
    ("fractional-t", "clean.csv", _edit_cell("t", "2.5"), "t must be a decimal integer"),
    ("padded-id", "spoofed.csv", _edit_cell("detection_id", "01"),
     "detection_id must be a decimal integer, got '01'"),
    ("cut-mid-row", "spoofed.csv", _cut_mid_row, "expected 10 cells"),
    ("extra-cell", "clean.csv", _extra_cell, "expected 10 cells, got 11"),
    ("clean-without-truth-id", "clean.csv", _clean_row_without_truth_id,
     "truth_id must not be empty in a clean row"),
    ("unknown-label", "spoofed.csv", _edit_cell("label", "spoof:bogus"), "label must be one of"),
    # the run is a drift run, and a clean stream holds no spoof
    ("ghost-label-in-drift-run", "spoofed.csv", _edit_cell("label", "spoof:ghost"),
     "label must be one of ['clean', 'clutter', 'spoof:drift'], got 'spoof:ghost'"),
    ("spoof-label-in-clean-stream", "clean.csv", _edit_cell("label", "spoof:drift"),
     "label must be one of ['clean', 'clutter'], got 'spoof:drift'"),
]


@pytest.mark.parametrize(
    "name,edit,named",
    [c[1:] for c in MALFORMED_DETECTIONS],
    ids=[c[0] for c in MALFORMED_DETECTIONS],
)
def test_malformed_detection_csv_exits_2(tmp_path, capsys, one_run_report, name, edit, named):
    out = tmp_path / "rep"
    shutil.copytree(one_run_report, out)
    csv_file = out / "drift-gnn-s0" / name
    lines = csv_file.read_text(encoding="utf-8").splitlines(keepends=True)
    line = edit(lines) or 3
    csv_file.write_text("".join(lines), encoding="utf-8")
    assert main(["export", "--report", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {csv_file}: line {line}: ")
    assert named in err


def test_export_rejects_a_listed_run_without_manifest(tmp_path, capsys, one_run_report):
    out = tmp_path / "rep"
    shutil.copytree(one_run_report, out)
    run_manifest = out / "drift-gnn-s0" / "manifest.json"
    run_manifest.unlink()
    assert main(["export", "--report", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {run_manifest}: missing")


@pytest.mark.parametrize("name", ["report.json", "snapshots.jsonl", "clean.csv", "spoofed.csv"])
def test_export_rejects_a_listed_run_without_a_file_it_reads(
    tmp_path, capsys, one_run_report, name
):
    out = tmp_path / "rep"
    shutil.copytree(one_run_report, out)
    missing = out / "drift-gnn-s0" / name
    missing.unlink()
    assert main(["export", "--report", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: {missing}: missing for listed run drift-gnn-s0\n"


def test_cli_run_overrides(tmp_path):
    path = write_config_file(tmp_path)
    out = tmp_path / "rep"
    assert (
        main(
            [
                "run",
                "--config",
                str(path),
                "--out",
                str(out),
                "--seeds",
                "2",
                "--spoofs",
                "clean",
            ]
        )
        == 0
    )
    run_dirs = sorted(p.name for p in out.iterdir() if p.is_dir())
    assert run_dirs == ["clean-gnn-s0", "clean-gnn-s1"]


def test_cli_run_jpda_with_every_likelihood_underflowed(tmp_path, capsys):
    # no clutter mass and a gate wide enough that a track's only gated
    # detections lie thousands of d2 away: exp(-d2 / 2) underflows for
    # all of them, which once divided by zero
    payload = json.loads(DEMO_CONFIG.read_text(encoding="utf-8"))
    payload["scenario"]["platforms"] = [
        {"platform_id": i, "class_id": 1, "stationary": True,
         "waypoints": [[0.0, [x, 0.0]], [100.0, [x, 0.0]]]}
        for i, x in enumerate((0.0, 300.0))
    ]
    payload["sensor"].update(clutter_rate=0.0, p_detect=0.5)
    payload.update(spoof_grid=[{"spoof_type": "clean"}], trackers=["jpda"],
                   tracker_params={"gamma": 100000})
    path = write_config_file(tmp_path, payload)
    assert main(["validate", "--config", str(path)]) == 0
    out = tmp_path / "rep"
    assert main(["run", "--config", str(path), "--out", str(out), "--seeds", "1"]) == 0
    lines = (out / "clean-jpda-s0" / "snapshots.jsonl").read_text(encoding="utf-8").splitlines()
    rows = [json.loads(line) for line in lines]
    assert any(row["beta"] and row["beta"]["miss"] == 0.0 for row in rows)


def test_cli_unknown_spoof_override_exit_2(tmp_path, capsys):
    path = write_config_file(tmp_path)
    code = main(
        ["run", "--config", str(path), "--out", str(tmp_path / "o"), "--spoofs", "nope"]
    )
    assert code == 2
    assert "config error" in capsys.readouterr().err
