"""Benchmark orchestration: spoof x tracker x seed grids, artifact
layout, cross-tracker comparison, and plot-data export.

Reproducibility contract: the whole pipeline is a pure function of the
benchmark config. Randomness enters only at sensing and spoofing: the
clean detection stream of a run depends only on its seed, the spoof
stream on (seed, spoof name), and the trackers draw nothing, so adding,
removing or reordering grid entries never changes the remaining runs,
and both trackers face bit-identical detection streams. Timestamps
appear only in manifests. plan_runs returns one RunManifest per run,
and run_group executes and writes exactly those, so each run folder
rebuilds byte for byte from its manifest.json alone.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import re
import shutil
from dataclasses import dataclass, fields, replace
from datetime import datetime, timezone
from functools import reduce
from operator import add
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
from .sensing import CLEAN_STREAM_LABELS, SensorConfig, generate_clean_run
from .sensing import read_detection_csv, write_detection_csv
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

_SPOOF_STREAM_TAG = 101


# the row and column label of the averages in comparison.csv, so no
# spoof may take it as its name
AVERAGE = "average"

_FOLDER_NAME = re.compile(r"[A-Za-z0-9_.-]+")


def check_folder_name(name: str, what: str) -> None:
    """A name that becomes a folder of the report directory must be one
    path component of [A-Za-z0-9_.-]+, and not . or .."""
    if not _FOLDER_NAME.fullmatch(name) or name in (".", ".."):
        raise ConfigError(f"{what} {name!r} must be one path component of [A-Za-z0-9_.-]+")


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


def _check_unique(values, what: str) -> None:
    """A ConfigError naming the list if any value repeats."""
    if len(set(values)) != len(values):
        raise ConfigError(f"duplicate {what}: {list(values)}")


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
        _check_unique(self.trackers, "trackers")
        names = [name for name, _ in self.spoof_grid]
        _check_unique(names, "spoof names")
        for name in names:
            check_folder_name(name, "spoof name")
        if AVERAGE in names:
            raise ConfigError(f"spoof name {AVERAGE!r} labels the averages of comparison.csv")
        _check_unique(self.seeds, "seeds")
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
    dt_s is the scenario's, never an override."""
    if not isinstance(overrides, dict):
        raise ConfigError("tracker_params must be an object")
    if "dt_s" in overrides:
        raise ConfigError("tracker_params.dt_s must not be set: scenario.dt_s sets it")
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
    for key, source in (("dt_s", "scenario.dt_s"), ("seed", "each grid seed")):
        if key in raw:
            raise ConfigError(f"{path}.{key} must not be set: {source} sets it")
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
class RunSummary(Record):
    """A run's identity: its entry in the top-level manifest."""

    run_id: str
    tracker: str
    spoof_name: str
    spoof_type: SpoofType
    seed: int

    def __post_init__(self) -> None:
        super().__post_init__()
        # compare and export join it to the report directory
        check_folder_name(self.run_id, "run_id")

    @property
    def include_beta(self) -> bool:
        """Whether the run's snapshots.jsonl rows carry a beta object:
        every row of a soft associator's run, no row of a hard one's."""
        return self.tracker == "jpda"


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

    def __post_init__(self) -> None:
        super().__post_init__()
        # compare and export index runs by these: one outside the grid
        # would be dropped or exported, one listed twice averaged twice
        _check_unique(self.trackers, "trackers")
        _check_unique([s.name for s in self.spoofs], "spoof names")
        _check_unique(self.seeds, "seeds")
        types = {s.name: s.spoof_type for s in self.spoofs}
        grid = {"tracker": set(self.trackers), "spoof_name": types, "seed": set(self.seeds)}
        listed: set = set()
        for i, run in enumerate(self.runs):
            for name, values in grid.items():
                if (value := getattr(run, name)) not in values:
                    raise ConfigError(f"runs[{i}].{name} {value!r} is not in the grid")
            if run.spoof_type is not types[run.spoof_name]:
                raise ConfigError(
                    f"runs[{i}].spoof_type {run.spoof_type.value!r} is not the "
                    f"{types[run.spoof_name].value!r} of spoof {run.spoof_name!r}"
                )
            for key in (run.run_id, (run.tracker, run.spoof_name, run.seed)):
                if key in listed:
                    raise ConfigError(f"runs[{i}]: {key!r} is listed twice")
                listed.add(key)


@dataclass(frozen=True)
class RunManifest(RunSummary):
    """manifest.json of one run folder: the run's plan, its identity and
    configs. run_group takes nothing else, so the folder rebuilds from
    its manifest alone; created_utc is the time the grid was planned."""

    config_digest: str
    created_utc: str
    scenario: ScenarioConfig
    sensor: SensorConfig
    spoof: SpoofConfig
    tracker_params: TrackerParams

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.spoof_type is not self.spoof.spoof_type:
            raise ConfigError(
                f"spoof_type {self.spoof_type.value!r} is not the "
                f"{self.spoof.spoof_type.value!r} of its spoof"
            )


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


def plan_runs(cfg: BenchmarkConfig) -> list[RunManifest]:
    """The manifest of every run of the grid, spoof then tracker then
    seed; one config digest and one planning time for the whole plan."""
    common = dict(
        config_digest=cfg.digest(), created_utc=_utc_now(), scenario=cfg.scenario,
        sensor=cfg.sensor, tracker_params=cfg.tracker_params,
    )
    return [
        RunManifest(
            run_id=f"{spoof_name}-{tracker}-s{seed}", tracker=tracker, spoof_name=spoof_name,
            spoof_type=template.spoof_type, seed=seed,
            spoof=replace(
                template, seed=derive_seed(seed, _SPOOF_STREAM_TAG, _name_slot(spoof_name))
            ),
            **common,
        )
        for spoof_name, template in cfg.spoof_grid
        for tracker in cfg.trackers
        for seed in cfg.seeds
    ]


def run_group(specs: list[RunManifest], out_dir: str) -> None:
    """Build, spoof and write one (spoof, seed) stream, then track,
    measure and write one run folder per manifest on it.

    Top-level function so worker pools can pickle it.
    """
    first = specs[0]
    truth = build_scenario(first.scenario)
    clean_frames = generate_clean_run(truth, first.sensor, seed=first.seed)
    spoofed_run = apply_spoof(clean_frames, first.spoof)
    # detection CSVs are keyed by stream, not by benchmark cell: the clean
    # stream of a spoofed run must byte-equal the clean-only run's CSV,
    # and every tracker of the group shares one spoofed stream, so the
    # group's other folders get byte copies of the first one's
    stream_dir = Path(out_dir) / first.run_id
    stream_dir.mkdir(parents=True, exist_ok=True)
    write_detection_csv(stream_dir / "clean.csv", spoofed_run.clean_frames, f"sense-s{first.seed}")
    write_detection_csv(
        stream_dir / "spoofed.csv", spoofed_run.spoofed_frames, f"{first.spoof_name}-s{first.seed}"
    )
    write_spoof_log_csv(stream_dir / "spoof_log.csv", spoofed_run.spoof_log)
    for spec in specs:
        run_dir = Path(out_dir) / spec.run_id
        if run_dir != stream_dir:
            run_dir.mkdir(parents=True, exist_ok=True)
            for name in ("clean.csv", "spoofed.csv", "spoof_log.csv"):
                shutil.copyfile(stream_dir / name, run_dir / name)
        run = run_tracker(
            spoofed_run.spoofed_frames, spec.tracker_params, TRACKER_STEPS[spec.tracker]
        )
        report = compute_run_report(
            run.snapshots,
            truth,
            spoofed_run,
            tracker_name=spec.tracker,
            spoof_name=spec.spoof_name,
            seed=spec.seed,
            config_digest=spec.config_digest,
            noise_sigma_m=spec.sensor.noise_sigma_m,
        )
        write_snapshots_jsonl(
            run_dir / "snapshots.jsonl", run.snapshots, include_beta=spec.include_beta
        )
        write_report_json(run_dir / "report.json", report)
        _write_json(run_dir / "manifest.json", spec.as_dict())
        # release this tracker's run before the next one starts, so a
        # group peaks no higher than one run
        del run, report


def worker_count(jobs: int, n_groups: int, cpus: Optional[int]) -> int:
    """Worker processes for a grid: the requested jobs, but never more
    than there are (spoof, seed) groups or CPUs (cpus=None counts as
    one), and at least 1."""
    return max(1, min(jobs, n_groups, cpus or 1))


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
    # one task per (spoof, seed) stream, its specs in plan order
    by_stream: dict = {}
    for spec in specs:
        by_stream.setdefault((spec.spoof_name, spec.seed), []).append(spec)
    groups = list(by_stream.values())
    jobs = worker_count(jobs, len(groups), os.cpu_count())
    if jobs > 1:
        # imported here: the pool pulls in multiprocessing, logging and
        # socket, a cost a one-process run need not pay at start-up
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            # consumed so that a worker's exception surfaces here
            list(pool.map(run_group, groups, itertools.repeat(str(out_path))))
    else:
        for group in groups:
            run_group(group, str(out_path))
    manifest = BenchmarkManifest(
        config_digest=cfg.digest(),
        created_utc=_utc_now(),
        trackers=list(cfg.trackers),
        spoofs=[SpoofEntry(name, c.spoof_type) for name, c in cfg.spoof_grid],
        seeds=list(cfg.seeds),
        runs=[RunSummary(s.run_id, s.tracker, s.spoof_name, s.spoof_type, s.seed) for s in specs],
    )
    _write_json(out_path / "manifest.json", manifest.as_dict())
    return out_path


def _read_manifest(report_path: Path) -> BenchmarkManifest:
    manifest_file = report_path / "manifest.json"
    if not manifest_file.exists():
        raise ConfigError(f"no manifest.json under {report_path}")
    return load_record(BenchmarkManifest, manifest_file)


def _read_listed(path: Path, entry: RunSummary, digest: str):
    """A listed run's report.json or manifest.json, which must hold its
    index entry's values: another config_digest means another config's
    run wrote it, another identity another run of the same grid.
    report.json names its spoof in spoof_type, and no run_id; a run
    manifest holds the whole identity."""
    expected = {"config_digest": digest, "tracker": entry.tracker, "seed": entry.seed}
    if path.name == "report.json":
        record = read_report_json(path)
        expected["spoof_type"] = entry.spoof_name
    else:
        record = load_record(RunManifest, path)
        expected.update(
            spoof_name=entry.spoof_name, spoof_type=entry.spoof_type, run_id=entry.run_id
        )
    for name, want in expected.items():
        if (found := getattr(record, name)) != want:
            found, want = encode(found), encode(want)  # spoof_type as its text
            raise ConfigError(f"{path}: {name} is {found!r}, manifest.json lists {want!r}")
    return record


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
    only; the clean cell keeps its own per-spoof average row. left_out
    holds (run_id, reason) of each listed run outside its cell's mean."""

    cells: dict
    tracker_averages: dict
    spoof_averages: dict
    missing: list
    left_out: list

    def rows(self) -> list:
        return [
            *((*key, cell.drift_m, cell.impact_pct) for key, cell in self.cells.items()),
            *((tracker, AVERAGE, *means) for tracker, means in self.tracker_averages.items()),
            *((AVERAGE, name, *means) for name, means in self.spoof_averages.items()),
        ]


def _mean_and_impact(drifts: list) -> tuple[float, float]:
    """Unweighted mean drift of a cell or an average, with its impact;
    the drifts are added left to right, as in metrics."""
    drift = float(reduce(add, drifts, 0.0) / len(drifts))
    return drift, normalized_impact(drift)


def _averages(cells: dict, axis: int, names: list) -> dict:
    """Mean and impact, per name in order, of the cells whose (tracker,
    spoof) key holds that name at axis, added in cell order."""
    groups: dict = {name: [] for name in names}
    for key, cell in cells.items():
        groups[key[axis]].append(cell.drift_m)
    return {name: _mean_and_impact(drifts) for name, drifts in groups.items() if drifts}


def compare_trackers(report_dir) -> ComparisonTable:
    """Aggregate run reports into the cross-tracker comparison and write
    comparison.csv next to the manifest. Runs left out of a cell's mean
    and cells with no run left are listed, never silently dropped."""
    report_path = Path(report_dir)
    manifest = _read_manifest(report_path)
    digest = manifest.config_digest
    names = [s.name for s in manifest.spoofs]
    # every cell of the grid, tracker then spoof, to the drifts of its
    # listed runs in manifest order
    drifts: dict = {(tracker, name): [] for tracker in manifest.trackers for name in names}
    left_out: list = []
    for entry in manifest.runs:
        run_dir = report_path / entry.run_id
        if not (run_dir / "report.json").exists():
            left_out.append((entry.run_id, "no report.json"))
        elif (drift := _read_listed(run_dir / "report.json", entry, digest).mean_drift_m) is None:
            left_out.append((entry.run_id, "no matched step"))
        else:
            drifts[(entry.tracker, entry.spoof_name)].append(drift)
    cells = {key: CellStats(*key, *_mean_and_impact(v), len(v)) for key, v in drifts.items() if v}
    spoofed = {s.name for s in manifest.spoofs if s.spoof_type is not SpoofType.CLEAN}
    spoofed_cells = {key: cell for key, cell in cells.items() if key[1] in spoofed}
    table = ComparisonTable(
        cells=cells,
        tracker_averages=_averages(spoofed_cells, 0, manifest.trackers),
        spoof_averages=_averages(cells, 1, names),
        missing=[f"{tracker}/{name}" for (tracker, name), v in drifts.items() if not v],
        left_out=left_out,
    )
    header = ["tracker", "spoof_type", "drift_m", "impact_pct"]
    write_csv(report_path / "comparison.csv", header, table.rows())
    return table


# every file of a run folder that _export_run reads
_EXPORT_INPUTS = ("manifest.json", "snapshots.jsonl", "report.json", "clean.csv", "spoofed.csv")


def export_plot_data(report_dir) -> list:
    """Write per-run plot-data CSVs: drift matrix (platforms x steps),
    purity timeline, assignment/switch events with spoof-window
    annotations, and the trajectory overlay. Returns the written paths.
    """
    report_path = Path(report_dir)
    manifest = _read_manifest(report_path)
    written: list = []
    for entry in manifest.runs:
        run_dir = report_path / entry.run_id
        for name in _EXPORT_INPUTS:
            if not (run_dir / name).exists():
                # run_benchmark writes the top-level manifest after every
                # run folder, so a listed run without it is a damaged directory
                raise ConfigError(f"{run_dir / name}: missing for listed run {entry.run_id}")
        written.extend(_export_run(run_dir, entry, manifest.config_digest))
    return written


def _export_run(run_dir: Path, entry: RunSummary, digest: str) -> list:
    manifest = _read_listed(run_dir / "manifest.json", entry, digest)
    truth = build_scenario(manifest.scenario)
    snapshots = read_snapshots_jsonl(run_dir / "snapshots.jsonl", manifest.include_beta)
    report = _read_listed(run_dir / "report.json", entry, digest)
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
    spoofed_labels = CLEAN_STREAM_LABELS
    if manifest.spoof.spoof_type is not SpoofType.CLEAN:
        spoofed_labels += (manifest.spoof.spoof_type.label,)
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
    for kind, name, labels in (
        ("clean_detection", "clean.csv", CLEAN_STREAM_LABELS),
        ("spoofed_detection", "spoofed.csv", spoofed_labels),
    ):
        rows.extend(
            (kind, d.t, d.detection_id, d.x, d.y, d.label)
            for d in read_detection_csv(run_dir / name, labels)
        )
    rows.extend(
        ("estimate", record.t, record.track_id, record.x, record.y, record.status)
        for record in snapshots
    )
    write_csv(path, ["kind", "t", "id", "x", "y", "label"], rows)
    written.append(path)
    return written
