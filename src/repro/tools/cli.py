"""repro-mf: the profile-feedback user interface for MF programs.

Subcommands::

    repro-mf run program.mf --input data.bin --stats
    repro-mf profile program.mf --dataset d1 --input data.bin --db prof.json
    repro-mf feedback program.mf --db prof.json -o program_fb.mf
    repro-mf predict program.mf --input new.bin --db prof.json
    repro-mf dynsim program.mf --input data.bin --table-size 256
    repro-mf lint program.mf
    repro-mf report --db prof.json

``profile`` accumulates branch counters into a JSON database across runs
(the IFPROBBER flow); ``feedback`` writes the counts back into the source
as ``IFPROB`` directives; ``predict`` scores the accumulated profile
against a fresh run with the paper's instructions-per-break measure.
"""
from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, Sequence

from repro.compiler import CompiledProgram, RunConfig, compile_source
from repro.metrics.ipb import (
    branch_density,
    ipb_no_prediction,
    ipb_self_prediction,
)
from repro.prediction.base import ProfilePredictor
from repro.prediction.evaluate import evaluate_static
from repro.profiling.database import ProfileDatabase
from repro.profiling.ifprobber import annotate_source, profile_from_feedback
from repro.vm.counters import RunResult
from repro.vm.machine import run_program
from repro.vm.monitors import BranchMonitor


def _read_input(args) -> bytes:
    if args.input is None:
        return b""
    if args.input == "-":
        return sys.stdin.buffer.read()
    with open(args.input, "rb") as handle:
        return handle.read()


def _load_source(path: str) -> str:
    with open(path) as handle:
        return handle.read()


def _program_name(path: str) -> str:
    return os.path.splitext(os.path.basename(path))[0]


def _load_db(path: str) -> ProfileDatabase:
    if os.path.exists(path):
        return ProfileDatabase.load(path)
    return ProfileDatabase()


def _compile(args) -> CompiledProgram:
    """Compile ``args.program`` under the subcommand's compile flags."""
    return compile_source(
        _load_source(args.program),
        name=_program_name(args.program),
        config=RunConfig(
            dce=args.dce, inline=args.inline, if_conversion=args.ifconvert
        ),
    )


def _run(
    args, compiled: CompiledProgram, monitors: Sequence[BranchMonitor] = ()
) -> RunResult:
    """Run a compiled program over the subcommand's ``--input``."""
    return run_program(
        compiled.lowered, input_data=_read_input(args), monitors=monitors
    )


# -- subcommands ---------------------------------------------------------------


def cmd_run(args) -> int:
    result = _run(args, _compile(args))
    sys.stdout.buffer.write(result.output)
    sys.stdout.flush()
    if args.stats:
        print(file=sys.stderr)
        print(f"exit code:            {result.exit_code}", file=sys.stderr)
        print(f"instructions:         {result.instructions}", file=sys.stderr)
        print(f"branch executions:    {result.total_branch_execs}", file=sys.stderr)
        print(f"percent taken:        {result.percent_taken():.1%}", file=sys.stderr)
        print(f"instrs per branch:    {branch_density(result):.1f}", file=sys.stderr)
        print(f"instrs/break (none):  {ipb_no_prediction(result):.1f}",
              file=sys.stderr)
        print(f"instrs/break (self):  {ipb_self_prediction(result):.1f}",
              file=sys.stderr)
        for key, value in result.events.as_dict().items():
            print(f"{key + ':':<22}{value}", file=sys.stderr)
    return result.exit_code


def cmd_profile(args) -> int:
    result = _run(args, _compile(args))
    database = _load_db(args.db)
    database.record(result, args.dataset)
    database.save(args.db)
    print(
        f"recorded {result.program}/{args.dataset}: "
        f"{result.instructions} instructions, "
        f"{result.total_branch_execs} branch executions -> {args.db}"
    )
    return 0


def cmd_feedback(args) -> int:
    source = _load_source(args.program)
    name = _program_name(args.program)
    database = ProfileDatabase.load(args.db)
    profile = database.program_profile(name)
    if not len(profile):
        print(f"error: no counts recorded for {name!r} in {args.db}",
              file=sys.stderr)
        return 1
    feedback_text = annotate_source(source, profile)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(feedback_text)
        print(f"wrote {args.output} ({len(profile)} IFPROB directives)")
    else:
        sys.stdout.write(feedback_text)
    return 0


def cmd_predict(args) -> int:
    compiled = _compile(args)
    result = _run(args, compiled)

    if args.db:
        database = ProfileDatabase.load(args.db)
        profile = database.program_profile(compiled.name)
        predictor_label = f"database {args.db}"
    elif compiled.feedback:
        profile = profile_from_feedback(compiled)
        predictor_label = "IFPROB directives in source"
    else:
        print("error: no --db given and the source has no IFPROB directives",
              file=sys.stderr)
        return 1

    predictor = ProfilePredictor(profile, name="feedback")
    report = evaluate_static(result, predictor)
    print(f"predictor:            {predictor_label}")
    print(f"instructions:         {result.instructions}")
    print(f"branch executions:    {report.branch_execs}")
    print(f"predicted correctly:  {report.percent_correct:.1%}")
    print(f"instrs/break (none):  {ipb_no_prediction(result):.1f}")
    print(f"instrs/break (fed):   {report.instructions_per_break:.1f}")
    print(f"instrs/break (self):  {ipb_self_prediction(result):.1f}")
    return 0


def cmd_dynsim(args) -> int:
    from repro.dynamic import default_zoo, monitors_for

    compiled = _compile(args)
    profile = None
    if args.db:
        database = ProfileDatabase.load(args.db)
        profile = database.program_profile(compiled.name)
        if not len(profile):
            print(f"error: no counts recorded for {compiled.name!r} in {args.db}",
                  file=sys.stderr)
            return 1
    try:
        models = default_zoo(args.table_size or (64, 256, 1024))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = _run(args, compiled, monitors=monitors_for(models))
    scores = [model.score(result) for model in models]
    if profile is not None:
        predictor = ProfilePredictor(profile, name="static-feedback")
        scores.insert(0, evaluate_static(result, predictor))
    print(f"{result.instructions} instructions, "
          f"{result.total_branch_execs} branch executions")
    print(f"{'predictor':<18} {'budget(bits)':>12} {'% correct':>10} "
          f"{'instrs/mispredict':>18}")
    for score in scores:
        budget = "-" if score.budget_bits is None else str(score.budget_bits)
        print(f"{score.predictor:<18} {budget:>12} "
              f"{score.percent_correct:>9.1%} "
              f"{score.instructions_per_break:>18.1f}")
    return 0


def cmd_lint(args) -> int:
    from repro.analysis.lint import lint_module, severity_counts

    findings = lint_module(_compile(args).module, min_severity=args.min_severity)
    for finding in findings:
        print(finding)
    counts = severity_counts(findings)
    summary = ", ".join(
        f"{count} {severity}{'s' if count != 1 else ''}"
        for severity, count in counts.items()
        if count
    )
    print(f"{args.program}: {summary or 'clean'}")
    failing = counts["error"] + (counts["warning"] if args.strict else 0)
    return 1 if failing else 0


def cmd_disasm(args) -> int:
    from repro.ir.disasm import disassemble

    print(disassemble(_compile(args).lowered))
    return 0


def cmd_report(args) -> int:
    database = ProfileDatabase.load(args.db)
    programs = database.programs()
    if not programs:
        print("database is empty")
        return 0
    for program in programs:
        print(f"{program}:")
        for dataset in database.datasets(program):
            profile = database.dataset_profile(program, dataset)
            print(
                f"  {dataset:16s} runs {profile.runs:>3}  "
                f"branches {len(profile):>5}  "
                f"executions {profile.total_executed:>12.0f}  "
                f"taken {profile.percent_taken():6.1%}"
            )
    return 0


# -- argument parsing ------------------------------------------------------------


def _add_compile_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dce", action="store_true",
                        help="enable global dead code elimination")
    parser.add_argument("--inline", action="store_true",
                        help="inline small leaf functions")
    parser.add_argument("--ifconvert", action="store_true",
                        help="if-convert trap-free hammocks")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-mf",
        description="Run, profile and predict MF programs "
        "(the paper's feedback user interface).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser("run", help="compile and run a program")
    run_parser.add_argument("program")
    run_parser.add_argument("--input", help="input file ('-' for stdin)")
    run_parser.add_argument("--stats", action="store_true",
                            help="print run statistics to stderr")
    _add_compile_flags(run_parser)
    run_parser.set_defaults(handler=cmd_run)

    profile_parser = subparsers.add_parser(
        "profile", help="run and accumulate branch counters into a database"
    )
    profile_parser.add_argument("program")
    profile_parser.add_argument("--dataset", required=True)
    profile_parser.add_argument("--input", help="input file ('-' for stdin)")
    profile_parser.add_argument("--db", default="profiles.json")
    _add_compile_flags(profile_parser)
    profile_parser.set_defaults(handler=cmd_profile)

    feedback_parser = subparsers.add_parser(
        "feedback", help="insert IFPROB directives from the database"
    )
    feedback_parser.add_argument("program")
    feedback_parser.add_argument("--db", default="profiles.json")
    feedback_parser.add_argument("-o", "--output")
    feedback_parser.set_defaults(handler=cmd_feedback)

    predict_parser = subparsers.add_parser(
        "predict", help="score the accumulated profile against a fresh run"
    )
    predict_parser.add_argument("program")
    predict_parser.add_argument("--input", help="input file ('-' for stdin)")
    predict_parser.add_argument("--db",
                                help="profile database (default: use IFPROB "
                                "directives found in the source)")
    _add_compile_flags(predict_parser)
    predict_parser.set_defaults(handler=cmd_predict)

    dynsim_parser = subparsers.add_parser(
        "dynsim",
        help="simulate hardware branch predictors over one run",
    )
    dynsim_parser.add_argument("program")
    dynsim_parser.add_argument("--input", help="input file ('-' for stdin)")
    dynsim_parser.add_argument(
        "--table-size",
        type=int,
        action="append",
        metavar="N",
        help="predictor table entries, repeatable (default: 64 256 1024)",
    )
    dynsim_parser.add_argument(
        "--db",
        help="also score this profile database as a static predictor",
    )
    _add_compile_flags(dynsim_parser)
    dynsim_parser.set_defaults(handler=cmd_dynsim)

    lint_parser = subparsers.add_parser(
        "lint", help="run the IR sanitizer over the compiled program"
    )
    lint_parser.add_argument("program")
    lint_parser.add_argument(
        "--min-severity",
        choices=["error", "warning", "info"],
        default="info",
        help="lowest severity to report (default: info, i.e. everything)",
    )
    lint_parser.add_argument(
        "--strict",
        action="store_true",
        help="exit nonzero on warnings as well as errors",
    )
    _add_compile_flags(lint_parser)
    lint_parser.set_defaults(handler=cmd_lint)

    disasm_parser = subparsers.add_parser(
        "disasm", help="disassemble the compiled program"
    )
    disasm_parser.add_argument("program")
    _add_compile_flags(disasm_parser)
    disasm_parser.set_defaults(handler=cmd_disasm)

    report_parser = subparsers.add_parser(
        "report", help="summarize a profile database"
    )
    report_parser.add_argument("--db", default="profiles.json")
    report_parser.set_defaults(handler=cmd_report)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
