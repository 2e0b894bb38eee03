"""End-to-end benchmark through the library API: plan the grid, run
every (spoof, tracker, seed) cell, aggregate the comparison table, and
export the plot-data CSVs.

The CLI drives the same code path from a JSON config:

    spoofbench run --config demos/benchmark_config.json --out reports
    spoofbench compare --report reports
    spoofbench export --report reports
"""

import dataclasses
import shutil
from pathlib import Path

import spoofbench
from spoofbench import (
    compare_trackers,
    export_plot_data,
    load_benchmark_config,
    run_benchmark,
)

OUT = Path(__file__).resolve().parent / "out" / "bench"
# the stock grid of the source checkout, found from the package so the
# demo also runs from a copy outside demos/
CONFIG = Path(spoofbench.__file__).resolve().parents[2] / "demos" / "benchmark_config.json"


def main():
    if OUT.exists():
        shutil.rmtree(OUT)

    cfg = load_benchmark_config(CONFIG)
    cfg = dataclasses.replace(cfg, seeds=(0, 1), output_dir=str(OUT))
    n = len(cfg.spoof_grid) * len(cfg.trackers) * len(cfg.seeds)
    print(f"grid: {len(cfg.spoof_grid)} spoofs x {len(cfg.trackers)} trackers "
          f"x {len(cfg.seeds)} seeds = {n} runs")
    print(f"config digest: {cfg.digest()[:16]}...")

    report_dir = run_benchmark(cfg, jobs=2)
    run_dirs = sorted(p.name for p in report_dir.iterdir() if p.is_dir())
    print(f"\nwrote {len(run_dirs)} run folders under {report_dir}")
    print("  " + ", ".join(run_dirs[:4]) + ", ...")
    one = report_dir / run_dirs[0]
    print(f"each folder holds: {', '.join(sorted(p.name for p in one.iterdir()))}")

    table = compare_trackers(report_dir)
    print(f"\n{'tracker':10s} {'spoof':10s} {'drift (m)':>10s} {'impact (%)':>11s}")
    for tracker, spoof, drift, impact in table.rows():
        print(f"{tracker:10s} {spoof:10s} {drift:10.2f} {impact:11.2f}")
    if table.missing:
        print(f"missing cells: {table.missing}")

    written = export_plot_data(report_dir)
    print(f"\nexported {len(written)} plot-data files, e.g.:")
    for path in written[:4]:
        print(f"  {path}")


if __name__ == "__main__":
    main()
