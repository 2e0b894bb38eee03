"""Relations that must hold between two runs, whatever their bytes."""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import measurement

from spoofbench.cli import main
from spoofbench.harness import TRACKER_STEPS, load_benchmark_config, plan_runs
from spoofbench.metrics import compute_run_report
from spoofbench.scenario import build_scenario
from spoofbench.sensing import DetectionFrame, generate_clean_run
from spoofbench.spoofing import apply_spoof
from spoofbench.tracking import run_tracker

ROOT = Path(__file__).resolve().parent.parent
DEMO_CONFIG = ROOT / "demos" / "benchmark_config.json"


def turn(v):
    """Vectors (..., 2) turned by exactly 90 degrees counter-clockwise."""
    return np.stack([-v[..., 1], v[..., 0]], axis=-1)


def turn_covariance(R):
    """Q R Q^T for the exact 90-degree turn Q."""
    return np.array([[R[1, 1], -R[1, 0]], [-R[0, 1], R[0, 0]]])


SHIFT = np.array([1000.0, 1000.0])

# (position map, velocity map, covariance map) of each rigid transform
TRANSFORMS = {
    "rotation": (turn, turn, turn_covariance),
    "shift": (lambda p: p + SHIFT, lambda v: v, lambda R: R),
}


def transformed_run(truth, spoofed_run, transform):
    """truth and both streams of spoofed_run moved by one transform."""
    position, velocity, covariance = TRANSFORMS[transform]
    moved = replace(
        truth,
        positions={pid: position(p) for pid, p in truth.positions.items()},
        velocities={pid: velocity(v) for pid, v in truth.velocities.items()},
    )

    def move(d):
        z, R = measurement(d)
        x, y = position(z).tolist()
        (r_xx, r_xy), (_, r_yy) = covariance(R).tolist()
        return d._replace(x=x, y=y, r_xx=r_xx, r_xy=r_xy, r_yy=r_yy)

    def stream(frames):
        return tuple(DetectionFrame(f.t, tuple(map(move, f.detections))) for f in frames)

    return moved, replace(
        spoofed_run,
        clean_frames=stream(spoofed_run.clean_frames),
        spoofed_frames=stream(spoofed_run.spoofed_frames),
    )


def planned_run(cfg, spoof, tracker):
    """The plan of one run of cfg, its truth and its spoofed streams."""
    [spec] = [s for s in plan_runs(cfg) if s.spoof_name == spoof and s.tracker == tracker]
    truth = build_scenario(spec.scenario)
    spoofed_run = apply_spoof(generate_clean_run(truth, spec.sensor, seed=spec.seed), spec.spoof)
    return spec, truth, spoofed_run


def report(spec, truth, spoofed_run):
    step = TRACKER_STEPS[spec.tracker]
    run = run_tracker(spoofed_run.spoofed_frames, spec.tracker_params, step)
    return compute_run_report(
        run.snapshots, truth, spoofed_run, spec.tracker, spec.spoof_name, spec.seed, "0" * 64,
        spec.sensor.noise_sigma_m,
    )


@pytest.mark.parametrize("transform", sorted(TRANSFORMS))
@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 99),
    spoof=st.sampled_from(["drift", "ghost", "mirror", "clean"]),
    tracker=st.sampled_from(["gnn", "jpda"]),
)
def test_rigid_motion_moves_no_metric(transform, seed, spoof, tracker):
    # the tracker and the matcher see only relative positions and
    # isotropic noise, so turning or shifting the whole picture after
    # spoofing changes drift by roundoff and the counts not at all
    cfg = replace(load_benchmark_config(DEMO_CONFIG), seeds=(seed,))
    spec, truth, spoofed_run = planned_run(cfg, spoof, tracker)
    base = report(spec, truth, spoofed_run)
    moved = report(spec, *transformed_run(truth, spoofed_run, transform))
    assert moved.switch_count == base.switch_count
    assert moved.matched_steps == base.matched_steps
    if base.mean_drift_m is None:
        assert moved.mean_drift_m is None
    else:
        assert abs(moved.mean_drift_m - base.mean_drift_m) <= 1e-9


# new platform ids for the demo scenario's 0-3, neither sorted nor dense
RENAMED = {0: 7, 1: 3, 2: 40, 3: 41}


def renamed_source(source):
    """A confusion source with its platform id renamed."""
    kind, _, pid = source.partition(":")
    return f"platform:{RENAMED[int(pid)]}" if kind == "platform" else source


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 99),
    spoof=st.sampled_from(["drift", "ghost", "mirror", "clean"]),
    tracker=st.sampled_from(["gnn", "jpda"]),
)
def test_renaming_platform_ids_moves_no_metric(seed, spoof, tracker):
    # a platform's id names it and draws nothing: sensing draws by the
    # platform's place in the list, which the renaming keeps, so every
    # total is equal and every per-platform value moves to the new id
    cfg = replace(load_benchmark_config(DEMO_CONFIG), seeds=(seed,))
    assert not any(template.target_platform_ids for _, template in cfg.spoof_grid)
    platforms = tuple(
        replace(p, platform_id=RENAMED[p.platform_id]) for p in cfg.scenario.platforms
    )
    renamed_cfg = replace(cfg, scenario=replace(cfg.scenario, platforms=platforms))
    base = report(*planned_run(cfg, spoof, tracker))
    renamed = report(*planned_run(renamed_cfg, spoof, tracker))
    for name in (
        "mean_drift_m", "max_drift_m", "matched_steps", "switch_count", "purity_timeline",
        "spoof_inclusion_rate", "recovery_rate", "false_association_ratio",
    ):
        assert getattr(renamed, name) == getattr(base, name), name
    for name in ("per_platform_drift", "per_platform_switches"):
        assert getattr(renamed, name) == {
            RENAMED[pid]: value for pid, value in getattr(base, name).items()
        }, name
    assert renamed.confusion == {
        RENAMED[pid]: {renamed_source(source): w for source, w in row.items()}
        for pid, row in base.confusion.items()
    }


def run_files(out, trackers):
    """`run` (which compares and exports) of a one-seed drift+ghost demo
    grid with trackers in the given order; the bytes of every file but
    the manifests, by relative path."""
    argv = ["run", "--config", str(DEMO_CONFIG), "--out", str(out), "--seeds", "1",
            "--spoofs", "drift,ghost", "--trackers", trackers]
    assert main(argv) == 0
    files = [p for p in sorted(out.rglob("*")) if p.is_file() and p.name != "manifest.json"]
    return {str(p.relative_to(out)): p.read_bytes() for p in files}


def test_tracker_order_changes_no_run(tmp_path):
    # the trackers draw no random numbers, so which one a grid lists
    # first changes only the config digest and the table's row order
    first = run_files(tmp_path / "jpda-first", "jpda,gnn")
    second = run_files(tmp_path / "gnn-first", "gnn,jpda")
    assert sorted(first) == sorted(second)
    assert "ghost-jpda-s0/snapshots.jsonl" in first
    for name in first:
        a, b = first[name].splitlines(), second[name].splitlines()
        if name.endswith("report.json"):
            differ = [i for i, (x, y) in enumerate(zip(a, b)) if x != y]
            assert len(a) == len(b) and len(differ) == 1, name
            assert a[differ[0]].startswith(b'  "config_digest": '), name
        elif name == "comparison.csv":
            assert a[0] == b[0] and a != b and sorted(a) == sorted(b)
        else:
            assert a == b, name
