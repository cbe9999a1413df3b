"""``repro-bench``: regenerate the paper's tables and figures as text.

Usage::

    repro-bench                 # run every experiment
    repro-bench fig3 fig8       # run a subset
    repro-bench --list          # show available experiment ids
    REPRO_BENCH_SCALE=full repro-bench fig3   # paper-scale data

Each experiment prints the table EXPERIMENTS.md records. Running a subset
still shares anonymizations and blocking results across experiments.
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.config import BenchConfig, ExperimentData
from repro.bench.experiments import EXPERIMENTS
from repro.obs import Telemetry


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-bench`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Reproduce the evaluation of 'A Hybrid Approach to "
        "Private Record Linkage' (ICDE 2008).",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="EXPERIMENT",
        help="experiment ids to run (default: all); see --list",
    )
    parser.add_argument(
        "--list", action="store_true", help="list experiment ids and exit"
    )
    parser.add_argument(
        "--records",
        type=int,
        default=None,
        help="override the number of source records "
        "(default: REPRO_BENCH_SCALE or 4500)",
    )
    parser.add_argument(
        "--seed", type=int, default=2008, help="experiment seed"
    )
    parser.add_argument(
        "--json",
        default=None,
        metavar="FILE",
        help="also write the selected experiments' tables as JSON",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="write a structured run report (span tree + metrics) as JSON",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="render live phase progress on stderr (a status bar on a TTY, "
        "periodic log lines otherwise)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list:
        for name in EXPERIMENTS:
            print(name)
        return 0
    selected = args.experiments or list(EXPERIMENTS)
    unknown = [name for name in selected if name not in EXPERIMENTS]
    if unknown:
        parser.error(
            f"unknown experiments: {', '.join(unknown)} "
            f"(choose from {', '.join(EXPERIMENTS)})"
        )
    telemetry = Telemetry()
    if args.progress:
        from repro.obs import ProgressRenderer

        telemetry.progress = ProgressRenderer()
    extra = (
        {"telemetry": telemetry} if (args.metrics_out or args.progress) else {}
    )
    if args.records is not None:
        config = BenchConfig(
            source_records=args.records, seed=args.seed, **extra
        )
    else:
        config = BenchConfig(seed=args.seed, **extra)
    data = ExperimentData(config)
    print(
        f"# repro-bench: {config.source_records} source records, "
        f"seed {config.seed}, defaults k={config.k}, theta={config.theta}, "
        f"allowance={config.allowance:.1%}, QIDs={config.qid_count}"
    )
    tables = []
    try:
        for name in selected:
            with telemetry.span(f"experiment.{name}") as span:
                table = EXPERIMENTS[name](data)
            tables.append(table)
            print()
            print(table.render())
            print(f"[{name} completed in {span.duration:.1f}s]")
    finally:
        telemetry.progress.close()
    if args.json:
        import json

        payload = {
            "source_records": config.source_records,
            "seed": config.seed,
            "experiments": [
                {
                    "experiment": table.experiment,
                    "title": table.title,
                    "headers": list(table.headers),
                    "rows": [list(row) for row in table.rows],
                }
                for table in tables
            ],
        }
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"\nwrote JSON results to {args.json}")
    if args.metrics_out:
        telemetry.write_report(
            args.metrics_out,
            context={
                "tool": "repro-bench",
                "experiments": selected,
                "source_records": config.source_records,
                "seed": config.seed,
            },
        )
        print(f"wrote run report to {args.metrics_out}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
