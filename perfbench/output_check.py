"""Output check of one grid iteration against reference.json.

Per cell: mean_drift_m within DRIFT_TOL_M of the reference, switch_count
and the snapshot-record count equal to it, and every run artifact and
export file present. Per (tracker, spoof) row of comparison.csv: the
drift equals the mean of the cells' reference drifts within DRIFT_TOL_M.
A failed row fails every cell it averages.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

# the roundoff allowance a speed-up may move a drift by
DRIFT_TOL_M = 1e-9

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
RUN_FILES = (
    "clean.csv",
    "spoofed.csv",
    "spoof_log.csv",
    "snapshots.jsonl",
    "report.json",
    "manifest.json",
)
EXPORT_FILES = ("drift_matrix.csv", "purity_timeline.csv", "events.csv", "overlay.csv")
REPORT_FILES = ("manifest.json", "comparison.csv")


def load_reference(workload: str) -> dict:
    """{run_id: [mean_drift_m, switch_count, snapshot_records]}."""
    with open(REFERENCE_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)["workloads"][workload]


def cell_outputs(run_dir: Path) -> list:
    """[mean_drift_m, switch_count, snapshot_records] of one run folder."""
    with open(run_dir / "report.json", "r", encoding="utf-8") as fh:
        report = json.load(fh)
    with open(run_dir / "snapshots.jsonl", "rb") as fh:
        records = sum(1 for line in fh if line.strip())
    return [report["mean_drift_m"], report["switch_count"], records]


def _drift_agrees(got, want) -> bool:
    if got is None or want is None:
        return got is None and want is None
    return abs(got - want) <= DRIFT_TOL_M


def check_iteration(report_dir, cells, reference: dict) -> dict:
    """Failures of one grid iteration as {run_id: [message, ...]}.

    cells lists (run_id, tracker, spoof_name) for every planned run; an
    empty result means every cell passed.
    """
    report_path = Path(report_dir)
    failures: dict = {}
    missing_top = [n for n in REPORT_FILES if not (report_path / n).is_file()]
    for run_id, _, _ in cells:
        problems = [f"missing {n}" for n in missing_top]
        want = reference.get(run_id)
        run_dir = report_path / run_id
        missing = [n for n in RUN_FILES + EXPORT_FILES if not (run_dir / n).is_file()]
        problems += [f"missing {n}" for n in missing]
        if want is None:
            problems.append("no reference recorded for this cell")
        elif "report.json" not in missing and "snapshots.jsonl" not in missing:
            try:
                drift, switches, records = cell_outputs(run_dir)
            except (ValueError, KeyError, TypeError) as exc:
                failures[run_id] = problems + [f"unreadable report.json: {exc!r}"]
                continue
            if not _drift_agrees(drift, want[0]):
                problems.append(f"mean_drift_m {drift!r} != reference {want[0]!r}")
            if switches != want[1]:
                problems.append(f"switch_count {switches} != reference {want[1]}")
            if records != want[2]:
                problems.append(f"snapshot records {records} != reference {want[2]}")
        if problems:
            failures[run_id] = problems
    if "comparison.csv" not in missing_top:
        for run_id, message in _check_table(report_path / "comparison.csv", cells, reference):
            failures.setdefault(run_id, []).append(message)
    return failures


def _check_table(path: Path, cells, reference: dict):
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            rows = {
                (row["tracker"], row["spoof_type"]): float(row["drift_m"])
                for row in csv.DictReader(fh)
            }
    except (ValueError, KeyError, TypeError) as exc:
        for run_id, _, _ in cells:
            yield run_id, f"unreadable comparison.csv: {exc!r}"
        return
    groups: dict = {}
    for run_id, tracker, spoof_name in cells:
        groups.setdefault((tracker, spoof_name), []).append(run_id)
    for (tracker, spoof_name), run_ids in groups.items():
        drifts = [reference[r][0] for r in run_ids if r in reference]
        drifts = [d for d in drifts if d is not None]
        got = rows.get((tracker, spoof_name))
        want = float(sum(drifts) / len(drifts)) if drifts else None
        if not _drift_agrees(got, want):
            message = f"comparison.csv {tracker}/{spoof_name} drift {got!r} != reference {want!r}"
            for run_id in run_ids:
                yield run_id, message
