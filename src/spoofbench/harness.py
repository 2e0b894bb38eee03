"""Benchmark orchestration: spoof x tracker x seed grids, artifact
layout, cross-tracker comparison, and plot-data export.

Reproducibility contract: the whole pipeline is a pure function of the
benchmark config. The clean detection stream of a run depends only on
its seed, the spoof stream on (seed, spoof name), and tracker birth
draws on (seed, tracker), so adding or removing grid entries never
changes the randomness of the remaining runs, and both trackers face
bit-identical detection streams. Timestamps appear only in manifests.
"""

from __future__ import annotations

import hashlib
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

from .codec import Record, check_keys, decode, encode, load_json, load_record, write_csv
from .codec import write_json as _write_json
from .errors import ConfigError
from .metrics import (
    PurityPoint,
    compute_run_report,
    match_tracks_to_truth,
    normalized_impact,
    read_report_json,
    write_report_json,
)
from .scenario import ScenarioConfig, build_scenario
from .sensing import SensorConfig, generate_clean_run, read_detection_csv, write_detection_csv
from .spoofing import SpoofConfig, SpoofType, apply_spoof, write_spoof_log_csv
from .streams import derive_seed
from .tracker_gnn import gnn_step
from .tracker_jpda import jpda_step
from .tracking import (
    TrackerParams,
    read_snapshots_jsonl,
    run_tracker,
    write_snapshots_jsonl,
)

TRACKER_STEPS = {"gnn": gnn_step, "jpda": jpda_step}

# fixed slots so birth streams do not depend on grid composition
_TRACKER_SLOT = {"gnn": 0, "jpda": 1}

_SPOOF_STREAM_TAG = 101
_BIRTH_STREAM_TAG = 202


def _name_slot(name: str) -> int:
    # stable across processes and machines, unlike hash()
    return int.from_bytes(hashlib.sha256(name.encode("utf-8")).digest()[:8], "big")


# planned runs (spoofs x trackers x seeds) allowed in one grid; checked
# before a seed range is built, so a typo cannot allocate a huge grid
MAX_RUNS = 10_000


def check_run_count(n_runs: int) -> None:
    if n_runs > MAX_RUNS:
        raise ConfigError(f"grid of {n_runs} runs exceeds the limit of {MAX_RUNS}")


def seed_range(base: int, count: int, cells: int) -> tuple:
    """count seeds from base, bounded before the tuple is built; an empty
    grid (cells 0) counts as one cell so the count is bounded on its own."""
    check_run_count(max(cells, 1) * count)
    return tuple(range(base, base + count))


@dataclass(frozen=True)
class _SeedRange(Record):
    """The {base_seed, count} shorthand of the seeds key."""

    base_seed: int = 0
    count: int = 1


@dataclass(frozen=True)
class BenchmarkConfig:
    """One benchmark grid. tracker_params=None derives them from the
    scenario and sensor; after construction it always holds the
    resolved params."""

    scenario: ScenarioConfig
    sensor: SensorConfig
    spoof_grid: tuple  # of (name, SpoofConfig)
    trackers: tuple
    seeds: tuple
    tracker_params: Optional[TrackerParams] = None
    output_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.spoof_grid:
            raise ConfigError("spoof_grid must not be empty")
        if not self.trackers:
            raise ConfigError("trackers must not be empty")
        if not self.seeds:
            raise ConfigError("seeds must not be empty")
        for tracker in self.trackers:
            if tracker not in TRACKER_STEPS:
                raise ConfigError(
                    f"unknown tracker {tracker!r}; choose from {sorted(TRACKER_STEPS)}"
                )
        names = [name for name, _ in self.spoof_grid]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate spoof names: {names}")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError("duplicate seeds")
        if min(self.seeds) < 0:
            raise ConfigError("seeds must be non-negative")
        check_run_count(len(self.spoof_grid) * len(self.trackers) * len(self.seeds))
        if self.tracker_params is None:
            params = _resolve_tracker_params(self.scenario, self.sensor, {})
            object.__setattr__(self, "tracker_params", params)

    def as_dict(self) -> dict:
        payload = {f.name: encode(getattr(self, f.name)) for f in fields(self)}
        payload["spoof_grid"] = [{"name": name, **cfg.as_dict()} for name, cfg in self.spoof_grid]
        return payload

    def digest(self) -> str:
        payload = self.as_dict()
        payload.pop("output_dir")
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    @classmethod
    def from_dict(cls, d: dict) -> "BenchmarkConfig":
        required = ("scenario", "spoof_grid", "trackers", "seeds")
        check_keys(d, [f.name for f in fields(cls)], required, "benchmark")
        scenario = ScenarioConfig.from_dict(d["scenario"], "scenario")
        sensor = SensorConfig.from_dict(d.get("sensor", {}), "sensor")
        if not isinstance(d["spoof_grid"], list):
            raise ConfigError("spoof_grid must be a list")
        grid = tuple(
            _resolve_spoof_template(raw, f"spoof_grid[{i}]", scenario, sensor)
            for i, raw in enumerate(d["spoof_grid"])
        )
        trackers = decode(tuple[str, ...], d["trackers"], "trackers")
        return cls(
            scenario=scenario,
            sensor=sensor,
            spoof_grid=grid,
            trackers=trackers,
            seeds=_resolve_seeds(d["seeds"], len(grid) * len(trackers)),
            tracker_params=_resolve_tracker_params(scenario, sensor, d.get("tracker_params", {})),
            output_dir=decode(Optional[str], d.get("output_dir"), "output_dir"),
        )


def _resolve_tracker_params(
    scenario: ScenarioConfig, sensor: SensorConfig, overrides: dict
) -> TrackerParams:
    """Tracker params derived from the sensor, under explicit overrides;
    the scenario clock always wins over an override of dt_s."""
    if not isinstance(overrides, dict):
        raise ConfigError("tracker_params must be an object")
    derived = {
        "p_detect": sensor.p_detect,
        "clutter_density": sensor.clutter_rate / sensor.fov.area,
    }
    merged = {**derived, **overrides, "dt_s": scenario.dt_s}
    return TrackerParams.from_dict(merged, "tracker_params")


def _resolve_seeds(raw, cells: int) -> tuple:
    """A seed list, or {base_seed, count} for count consecutive seeds;
    cells is the spoof x tracker count the run bound applies to."""
    if not isinstance(raw, dict):
        return decode(tuple[int, ...], raw, "seeds")
    seeds = _SeedRange.from_dict(raw, "seeds")
    return seed_range(seeds.base_seed, seeds.count, cells)


def _resolve_spoof_template(
    raw: dict, path: str, scenario: ScenarioConfig, sensor: SensorConfig
) -> tuple:
    """Fill scenario/sensor-dependent defaults into one grid entry."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{path} must be an object")
    raw = dict(raw)
    name = decode(Optional[str], raw.pop("name", None), f"{path}.name")
    if name == "":
        raise ConfigError(f"{path}.name must not be empty")
    if "injection_window" not in raw and raw.get("spoof_type") != "clean":
        # default window: the middle 60% of the scenario
        T = scenario.n_steps
        raw["injection_window"] = [int(T * 0.2), int(T * 0.8)]
    if raw.get("spoof_type") == "ghost":
        raw.setdefault("ghost_sigma_m", sensor.noise_sigma_m)
        if raw.get("ghost_mode", "uniform") == "uniform" and "ghost_region" not in raw:
            raw["ghost_region"] = sensor.fov.as_dict()
    raw["dt_s"] = scenario.dt_s
    spoof = SpoofConfig.from_dict(raw, path)
    return name or spoof.spoof_type.value, spoof


def load_benchmark_config(path) -> BenchmarkConfig:
    return BenchmarkConfig.from_dict(load_json(path))


@dataclass(frozen=True)
class RunSpec:
    run_id: str
    spoof_name: str
    spoof_cfg: SpoofConfig
    tracker: str
    seed: int


def plan_runs(cfg: BenchmarkConfig) -> list[RunSpec]:
    specs: list[RunSpec] = []
    for spoof_name, template in cfg.spoof_grid:
        for tracker in cfg.trackers:
            for seed in cfg.seeds:
                run_seed_spoof = derive_seed(seed, _SPOOF_STREAM_TAG, _name_slot(spoof_name))
                specs.append(
                    RunSpec(
                        run_id=f"{spoof_name}-{tracker}-s{seed}",
                        spoof_name=spoof_name,
                        spoof_cfg=replace(template, seed=run_seed_spoof),
                        tracker=tracker,
                        seed=seed,
                    )
                )
    return specs


@dataclass(frozen=True)
class RunSummary(Record):
    """One run's entry in the top-level manifest."""

    run_id: str
    tracker: str
    spoof_name: str
    spoof_type: SpoofType
    seed: int
    mean_drift_m: Optional[float]
    switch_count: int


@dataclass(frozen=True)
class SpoofEntry(Record):
    name: str
    spoof_type: SpoofType


@dataclass(frozen=True)
class BenchmarkManifest(Record):
    """manifest.json at the top of a report directory: the grid and its runs."""

    config_digest: str
    created_utc: str
    trackers: list[str]
    spoofs: list[SpoofEntry]
    seeds: list[int]
    runs: list[RunSummary]


@dataclass(frozen=True)
class DerivedSeeds(Record):
    sensing: int
    spoof: int
    birth: int


@dataclass(frozen=True)
class RunManifest(Record):
    """manifest.json of one run folder: everything needed to rebuild it."""

    run_id: str
    tracker: str
    spoof_name: str
    spoof_type: SpoofType
    seed: int
    config_digest: str
    created_utc: str
    derived_seeds: DerivedSeeds
    scenario: ScenarioConfig
    sensor: SensorConfig
    spoof: SpoofConfig
    tracker_params: TrackerParams


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


def execute_run(
    spec: RunSpec,
    scenario: ScenarioConfig,
    sensor: SensorConfig,
    params: TrackerParams,
    out_dir: str,
    config_digest: str,
) -> RunSummary:
    """Build, spoof, track, measure, and write one run folder.

    Top-level function so worker pools can pickle it.
    """
    truth = build_scenario(scenario)
    clean_frames = generate_clean_run(truth, sensor, seed=spec.seed)
    spoofed_run = apply_spoof(clean_frames, spec.spoof_cfg)
    birth_seed = derive_seed(spec.seed, _BIRTH_STREAM_TAG, _TRACKER_SLOT[spec.tracker])
    run = run_tracker(
        spoofed_run.spoofed_frames,
        params,
        TRACKER_STEPS[spec.tracker],
        birth_seed=birth_seed,
    )
    report = compute_run_report(
        run,
        truth,
        spoofed_run,
        tracker_name=spec.tracker,
        spoof_name=spec.spoof_name,
        seed=spec.seed,
        config_digest=config_digest,
        noise_sigma_m=sensor.noise_sigma_m,
    )
    run_dir = Path(out_dir) / spec.run_id
    run_dir.mkdir(parents=True, exist_ok=True)
    # detection CSVs are keyed by stream, not by benchmark cell: the clean
    # stream of a spoofed run must byte-equal the clean-only run's CSV,
    # and both trackers share one spoofed stream
    write_detection_csv(run_dir / "clean.csv", spoofed_run.clean_frames, f"sense-s{spec.seed}")
    write_detection_csv(
        run_dir / "spoofed.csv", spoofed_run.spoofed_frames, f"{spec.spoof_name}-s{spec.seed}"
    )
    write_spoof_log_csv(run_dir / "spoof_log.csv", spoofed_run.spoof_log)
    write_snapshots_jsonl(
        run_dir / "snapshots.jsonl", run, include_beta=spec.tracker == "jpda"
    )
    write_report_json(run_dir / "report.json", report)
    manifest = RunManifest(
        run_id=spec.run_id,
        tracker=spec.tracker,
        spoof_name=spec.spoof_name,
        spoof_type=spec.spoof_cfg.spoof_type,
        seed=spec.seed,
        config_digest=config_digest,
        created_utc=_utc_now(),
        derived_seeds=DerivedSeeds(sensing=spec.seed, spoof=spec.spoof_cfg.seed, birth=birth_seed),
        scenario=scenario,
        sensor=sensor,
        spoof=spec.spoof_cfg,
        tracker_params=params,
    )
    _write_json(run_dir / "manifest.json", manifest.as_dict())
    return RunSummary(
        run_id=spec.run_id,
        tracker=spec.tracker,
        spoof_name=spec.spoof_name,
        spoof_type=spec.spoof_cfg.spoof_type,
        seed=spec.seed,
        mean_drift_m=report.mean_drift_m,
        switch_count=report.switch_count,
    )


def worker_count(jobs: int, n_runs: int, cpus: Optional[int]) -> int:
    """Worker processes for a grid: the requested jobs, but never more
    than there are runs or CPUs (cpus=None counts as one), and at least 1."""
    return max(1, min(jobs, n_runs, cpus or 1))


def run_benchmark(
    cfg: BenchmarkConfig, out_dir: Optional[str] = None, jobs: int = 1
) -> Path:
    """Execute the full grid and write the report directory.

    Fails before any run starts on invalid config or unwritable output.
    Returns the report directory path.
    """
    target = out_dir or cfg.output_dir
    if not target:
        raise ConfigError("no output directory: set output_dir or pass --out")
    out_path = Path(target)
    out_path.mkdir(parents=True, exist_ok=True)
    specs = plan_runs(cfg)
    digest = cfg.digest()
    run_args = [
        (spec, cfg.scenario, cfg.sensor, cfg.tracker_params, str(out_path), digest)
        for spec in specs
    ]
    jobs = worker_count(jobs, len(specs), os.cpu_count())
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            summaries = list(pool.map(_execute_run_star, run_args))
    else:
        summaries = [execute_run(*args) for args in run_args]
    manifest = BenchmarkManifest(
        config_digest=digest,
        created_utc=_utc_now(),
        trackers=list(cfg.trackers),
        spoofs=[SpoofEntry(name, c.spoof_type) for name, c in cfg.spoof_grid],
        seeds=list(cfg.seeds),
        runs=summaries,
    )
    _write_json(out_path / "manifest.json", manifest.as_dict())
    return out_path


def _read_manifest(report_path: Path) -> BenchmarkManifest:
    manifest_file = report_path / "manifest.json"
    if not manifest_file.exists():
        raise ConfigError(f"no manifest.json under {report_path}")
    return load_record(BenchmarkManifest, manifest_file)


def _execute_run_star(args) -> RunSummary:
    return execute_run(*args)


@dataclass(frozen=True)
class CellStats:
    tracker: str
    spoof_name: str
    drift_m: float
    impact_pct: float
    n_runs: int


@dataclass(frozen=True)
class ComparisonTable:
    """Mean drift and normalized impact per (tracker, spoof) cell, with
    unweighted group averages. Per-tracker averages cover spoofed cells
    only; the clean cell keeps its own per-spoof average row."""

    cells: dict
    tracker_averages: dict
    spoof_averages: dict
    missing: list

    def rows(self) -> list:
        out = []
        for (tracker, spoof_name), cell in self.cells.items():
            out.append((tracker, spoof_name, cell.drift_m, cell.impact_pct))
        for tracker, (drift, impact) in self.tracker_averages.items():
            out.append((tracker, "average", drift, impact))
        for spoof_name, (drift, impact) in self.spoof_averages.items():
            out.append(("average", spoof_name, drift, impact))
        return out


def compare_trackers(report_dir) -> ComparisonTable:
    """Aggregate run reports into the cross-tracker comparison and write
    comparison.csv next to the manifest. Missing or drift-less cells are
    reported in the table's missing list, never silently dropped."""
    report_path = Path(report_dir)
    manifest = _read_manifest(report_path)
    trackers = manifest.trackers
    spoofs = [(s.name, s.spoof_type) for s in manifest.spoofs]
    drifts: dict = {}
    for entry in manifest.runs:
        report_file = report_path / entry.run_id / "report.json"
        if not report_file.exists():
            continue
        report = read_report_json(report_file)
        if report.mean_drift_m is None:
            continue
        drifts.setdefault((entry.tracker, entry.spoof_name), []).append(report.mean_drift_m)
    cells: dict = {}
    missing: list = []
    for tracker in trackers:
        for spoof_name, _ in spoofs:
            values = drifts.get((tracker, spoof_name), [])
            if not values:
                missing.append(f"{tracker}/{spoof_name}")
                continue
            drift = float(sum(values) / len(values))
            cells[(tracker, spoof_name)] = CellStats(
                tracker=tracker,
                spoof_name=spoof_name,
                drift_m=drift,
                impact_pct=normalized_impact(drift),
                n_runs=len(values),
            )
    spoofed_names = [name for name, stype in spoofs if stype is not SpoofType.CLEAN]
    tracker_averages: dict = {}
    for tracker in trackers:
        members = [
            cells[(tracker, name)].drift_m
            for name in spoofed_names
            if (tracker, name) in cells
        ]
        if members:
            drift = float(sum(members) / len(members))
            tracker_averages[tracker] = (drift, normalized_impact(drift))
    spoof_averages: dict = {}
    for spoof_name, _ in spoofs:
        members = [
            cells[(tracker, spoof_name)].drift_m
            for tracker in trackers
            if (tracker, spoof_name) in cells
        ]
        if members:
            drift = float(sum(members) / len(members))
            spoof_averages[spoof_name] = (drift, normalized_impact(drift))
    table = ComparisonTable(
        cells=cells,
        tracker_averages=tracker_averages,
        spoof_averages=spoof_averages,
        missing=missing,
    )
    header = ["tracker", "spoof_type", "drift_m", "impact_pct"]
    write_csv(report_path / "comparison.csv", header, table.rows())
    return table


def export_plot_data(report_dir) -> list:
    """Write per-run plot-data CSVs: drift matrix (platforms x steps),
    purity timeline, assignment/switch events with spoof-window
    annotations, and the trajectory overlay. Returns the written paths.
    """
    report_path = Path(report_dir)
    manifest = _read_manifest(report_path)
    written: list = []
    for entry in manifest.runs:
        run_manifest = report_path / entry.run_id / "manifest.json"
        if not run_manifest.exists():
            # run_benchmark writes the top-level manifest after every run
            # folder, so a listed run without one is a damaged directory
            raise ConfigError(f"{run_manifest}: missing for listed run {entry.run_id}")
        written.extend(_export_run(run_manifest.parent))
    return written


def _export_run(run_dir: Path) -> list:
    manifest = load_record(RunManifest, run_dir / "manifest.json")
    truth = build_scenario(manifest.scenario)
    snapshots = read_snapshots_jsonl(run_dir / "snapshots.jsonl")
    report = read_report_json(run_dir / "report.json")
    correspondence = match_tracks_to_truth(snapshots, truth)
    T = truth.n_steps
    written = []

    # the matched distances themselves: the exact samples behind
    # report.json's per_platform_drift
    path = run_dir / "drift_matrix.csv"
    matrix = (
        [pid] + [correspondence.distances.get(pid, {}).get(t) for t in range(T)]
        for pid in truth.platform_ids
    )
    write_csv(path, ["platform_id"] + [str(t) for t in range(T)], matrix)
    written.append(path)

    path = run_dir / "purity_timeline.csv"
    write_csv(path, PurityPoint._fields, report.purity_timeline)
    written.append(path)

    path = run_dir / "events.csv"
    rows: list = []
    for record in snapshots:
        if record.detection_id is None:
            continue
        pid = correspondence.platform_of(record.t, record.track_id)
        rows.append(
            (record.t, "assignment", "" if pid is None else pid, record.track_id,
             record.detection_id, record.score)
        )
    for t, pid, previous, track_id in correspondence.switches():
        rows.append((t, "switch", pid, track_id, "", f"from={previous}"))
    window = manifest.spoof.injection_window
    if manifest.spoof.spoof_type is not SpoofType.CLEAN:
        for t in range(max(0, window[0]), min(T - 1, window[1]) + 1):
            rows.append((t, "spoof_window", "", "", "", manifest.spoof_name))
    rows.sort(key=lambda r: (r[0], r[1], str(r[2]), str(r[3])))
    write_csv(path, ["t", "kind", "platform_id", "track_id", "detection_id", "info"], rows)
    written.append(path)

    path = run_dir / "overlay.csv"
    rows = [
        ("truth", t, pid, *truth.positions[pid][t], None)
        for pid in truth.platform_ids
        for t in range(T)
    ]
    for kind, name in (("clean_detection", "clean.csv"), ("spoofed_detection", "spoofed.csv")):
        rows.extend(
            (kind, d.t, d.detection_id, d.x, d.y, d.label)
            for d in read_detection_csv(run_dir / name)
        )
    rows.extend(
        ("estimate", record.t, record.track_id, record.x, record.y, record.status)
        for record in snapshots
    )
    write_csv(path, ["kind", "t", "id", "x", "y", "label"], rows)
    written.append(path)
    return written
