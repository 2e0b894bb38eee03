"""Relations that must hold between two runs, whatever their bytes."""

from pathlib import Path

from spoofbench.cli import main

ROOT = Path(__file__).resolve().parent.parent
DEMO_CONFIG = ROOT / "demos" / "benchmark_config.json"


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
