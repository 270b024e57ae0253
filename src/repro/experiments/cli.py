"""Command-line entry point: regenerate every table and figure.

Usage::

    repro-experiments [table1|...|figure3|runlengths|coverage|dynamic|proofs|all]
    repro-experiments figure2 --chart      # ASCII bar charts
    repro-experiments dynamic --jobs 2     # static vs hardware predictors
    repro-experiments export --out results.json
"""
from __future__ import annotations

import argparse
import sys
import time
from typing import List

from repro.core.runner import WorkloadRunner
from repro.experiments import EXPERIMENTS, plan, run_experiments
from repro.experiments.export import export_json


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Reproduce the paper's tables and figures."
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        default="all",
        choices=list(EXPERIMENTS) + ["export", "all"],
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk run cache",
    )
    parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=1,
        metavar="N",
        help="fan independent runs across N worker processes "
        "(0 = all cores; default: 1)",
    )
    parser.add_argument(
        "--chart",
        action="store_true",
        help="render figures as ASCII bar charts instead of tables",
    )
    parser.add_argument(
        "--out",
        default="results.json",
        help="output path for the export subcommand",
    )
    args = parser.parse_args(argv)

    try:
        runner = WorkloadRunner(
            cache_dir=None if args.no_cache else "auto", jobs=args.jobs
        )
    except ValueError as exc:
        parser.error(str(exc))
    # ``all`` and ``export`` plan every experiment.
    names = [args.experiment] if args.experiment in EXPERIMENTS else list(EXPERIMENTS)
    started = time.time()
    results = run_experiments(runner, names)
    print(
        f"[plan: {len(plan(names))} requests, {runner.executions} executed "
        f"in {time.time() - started:.1f}s]",
        file=sys.stderr,
    )
    started = time.time()
    if args.experiment == "export":
        export_json(args.out, runner)  # builds each result from the memo
        print(f"wrote {args.out}\n")
        print(f"[export done in {time.time() - started:.1f}s]", file=sys.stderr)
        return 0
    for name, result in results:
        if args.chart and hasattr(result, "format_chart"):
            print(result.format_chart())
        else:
            print(result.format_text())
        print()
        print(f"[{name} done in {time.time() - started:.1f}s]", file=sys.stderr)
        started = time.time()
    return 0


if __name__ == "__main__":
    sys.exit(main())
