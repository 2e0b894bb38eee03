"""Command line front end.

Exit codes: 0 success, 2 invalid config or arguments, or a malformed
report.json, manifest.json or snapshots.jsonl, or one of another config or run
(the error names the file, and the JSON path or line), or a file export reads
missing from a listed run, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .errors import ConfigError
from .harness import (
    BenchmarkConfig,
    compare_trackers,
    export_plot_data,
    load_benchmark_config,
    plan_runs,
    run_benchmark,
    seed_range,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spoofbench",
        description="Seed-reproducible GNN/JPDA tracking benchmark under radar spoofing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute the benchmark grid from a config file")
    run_p.add_argument("--config", required=True, help="benchmark config JSON")
    run_p.add_argument("--out", help="report directory (overrides config output_dir)")
    run_p.add_argument("--seeds", type=int, metavar="N",
                       help="replace the seed list with N consecutive seeds from its first entry")
    run_p.add_argument("--trackers", help="comma-separated subset, e.g. gnn,jpda")
    run_p.add_argument("--spoofs", help="comma-separated subset of spoof names")
    run_p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")

    compare_p = sub.add_parser("compare", help="rebuild comparison.csv from run reports")
    compare_p.add_argument("--report", required=True, help="report directory from a run")

    export_p = sub.add_parser("export", help="write plot-data CSVs for every run")
    export_p.add_argument("--report", required=True, help="report directory from a run")

    validate_p = sub.add_parser("validate", help="check a config file without running")
    validate_p.add_argument("--config", required=True, help="benchmark config JSON")
    return parser


def _apply_overrides(cfg: BenchmarkConfig, args: argparse.Namespace) -> BenchmarkConfig:
    if args.trackers:
        wanted = tuple(t.strip() for t in args.trackers.split(",") if t.strip())
        cfg = replace(cfg, trackers=wanted)
    if args.spoofs:
        wanted_names = [s.strip() for s in args.spoofs.split(",") if s.strip()]
        have = {name for name, _ in cfg.spoof_grid}
        unknown = [n for n in wanted_names if n not in have]
        if unknown:
            raise ConfigError(f"unknown spoof names: {unknown}; config has {sorted(have)}")
        grid = tuple(e for e in cfg.spoof_grid if e[0] in wanted_names)
        cfg = replace(cfg, spoof_grid=grid)
    if args.seeds is not None:
        if args.seeds < 1:
            raise ConfigError("--seeds must be at least 1")
        cells = len(cfg.spoof_grid) * len(cfg.trackers)
        cfg = replace(cfg, seeds=seed_range(cfg.seeds[0], args.seeds, cells))
    if args.out:
        cfg = replace(cfg, output_dir=args.out)
    return cfg


def _print_table(table) -> None:
    print(f"{'tracker':<10} {'spoof':<12} {'drift_m':>10} {'impact_pct':>10}")
    for tracker, spoof_name, drift, impact in table.rows():
        print(f"{tracker:<10} {spoof_name:<12} {drift:>10.2f} {impact:>10.2f}")
    for gap in table.missing:
        print(f"missing cell: {gap}")
    for run_id, reason in table.left_out:
        print(f"left out: {run_id} ({reason})")


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _apply_overrides(load_benchmark_config(args.config), args)
    if args.jobs < 1:
        raise ConfigError("--jobs must be at least 1")
    out_path = run_benchmark(cfg, jobs=args.jobs)
    table = compare_trackers(out_path)
    export_plot_data(out_path)
    print(f"wrote {len(plan_runs(cfg))} runs to {out_path}")
    _print_table(table)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    _print_table(compare_trackers(args.report))
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    written = export_plot_data(args.report)
    print(f"wrote {len(written)} plot-data files under {args.report}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    cfg = load_benchmark_config(args.config)
    n = len(plan_runs(cfg))
    print(
        f"config ok: {len(cfg.spoof_grid)} spoofs x {len(cfg.trackers)} trackers"
        f" x {len(cfg.seeds)} seeds = {n} runs"
    )
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "compare": _cmd_compare,
    "export": _cmd_export,
    "validate": _cmd_validate,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
