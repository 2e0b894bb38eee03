"""Seed-reproducible benchmark of GNN and JPDA tracking under radar
spoofing: scenario truth, noisy sensing, spoof injection, two trackers,
a metric suite, and an artifact-writing harness."""

from .errors import ConfigError
from .geometry import Region
from .scenario import (
    GroundTruth,
    PlatformSpec,
    ScenarioConfig,
    build_scenario,
    default_scenario_config,
    load_scenario_config,
)
from .sensing import (
    Detection,
    DetectionFrame,
    SensorConfig,
    generate_clean_run,
    read_detection_csv,
    write_detection_csv,
)
from .spoofing import (
    SpoofConfig,
    SpoofType,
    SpoofedRun,
    apply_spoof,
)
from .estimation import (
    GateResult,
    estimate_from_detection,
)
from .tracking import (
    TrackBank,
    TrackStatus,
    TrackerParams,
    TrackerRun,
    run_tracker,
    read_snapshots_jsonl,
    write_snapshots_jsonl,
)
from .tracker_gnn import gnn_step, hungarian
from .tracker_jpda import association_probabilities, jpda_step
from .metrics import (
    DriftReport,
    RunReport,
    compute_run_report,
    drift_from_truth,
    match_tracks_to_truth,
    normalized_impact,
    recovery_rate,
)
from .harness import (
    BenchmarkConfig,
    ComparisonTable,
    compare_trackers,
    export_plot_data,
    load_benchmark_config,
    run_benchmark,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "Region",
    "GroundTruth",
    "PlatformSpec",
    "ScenarioConfig",
    "build_scenario",
    "default_scenario_config",
    "load_scenario_config",
    "Detection",
    "DetectionFrame",
    "SensorConfig",
    "generate_clean_run",
    "read_detection_csv",
    "write_detection_csv",
    "SpoofConfig",
    "SpoofType",
    "SpoofedRun",
    "apply_spoof",
    "GateResult",
    "estimate_from_detection",
    "TrackBank",
    "TrackStatus",
    "TrackerParams",
    "TrackerRun",
    "run_tracker",
    "read_snapshots_jsonl",
    "write_snapshots_jsonl",
    "gnn_step",
    "hungarian",
    "association_probabilities",
    "jpda_step",
    "DriftReport",
    "RunReport",
    "compute_run_report",
    "drift_from_truth",
    "match_tracks_to_truth",
    "normalized_impact",
    "recovery_rate",
    "BenchmarkConfig",
    "ComparisonTable",
    "compare_trackers",
    "export_plot_data",
    "load_benchmark_config",
    "run_benchmark",
]
