"""Substrate benchmarks: compiler and VM throughput.

These do not correspond to a paper table; they keep the reproduction's own
toolchain honest (compile speed, simulation speed, prediction-evaluation
speed), which everything else depends on.

``test_smoke_compile_all_workloads`` compiles the 15 workloads under the
paper configuration and times each ``compile_source`` stage and the
engine's plain-variant code generation, best of ``SMOKE_REPEATS``.  It
holds the compile to a generous CI ceiling and pins the optimizer's pass
calls exactly.  ``test_full_compile_benchmark`` takes more repeats and
rewrites ``BENCH_COMPILE.json``, keeping the report it replaces as its
``before`` half, so each refresh is a before/after pair.
"""
import collections
import dataclasses
import json
import platform
import time
from pathlib import Path

import repro.compiler as compiler
from repro.compiler import compile_source
from repro.opt import pipeline
from repro.prediction import ProfilePredictor, evaluate_static
from repro.profiling import BranchProfile
from repro.vm.engine import compiled, predecode
from repro.vm.machine import run_program
from repro.workloads import get_workload, load_program_source
from repro.workloads.registry import all_workloads

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_COMPILE.json"

#: The ``compile_source`` stages, by the name each calls through
#: ``repro.compiler``; the paper configuration runs no inlining.
COMPILE_STAGES = {
    "parse": "parse_source",
    "sema": "analyze",
    "codegen": "generate_module",
    "optimize": "optimize_module",
    "validate": "validate_module",
    "lower": "lower_module",
}

SMOKE_REPEATS = 3
FULL_REPEATS = 9

#: CI ceiling on compiling the 15 workloads, in seconds.  It measures
#: 0.34-0.50 s on a shared 2-vCPU host with Python 3.11; eight times the
#: slower figure leaves room for slow CI hosts and still catches a compile
#: layer gone quadratic.
COMPILE_CEILING_S = 4.0

#: Pass calls over the 15 workloads.  Exact: the optimizer's first round
#: runs every function and each later round only those the round before
#: changed, so a change to a pass or to that worklist that moves any of
#: these must update them.
PASS_CALLS = {
    "constant-folding": 385,
    "copy-propagation": 385,
    "cse": 385,
    "jump-threading": 385,
    "dead-instructions": 385,
}


def test_compile_lisp_interpreter(benchmark):
    source = load_program_source("li.mf")
    compiled = benchmark(compile_source, source, "li")
    assert compiled.lowered.functions


def test_vm_throughput_lfk(benchmark):
    workload = get_workload("lfk")
    lowered = compile_source(workload.source, name="lfk").lowered
    result = benchmark(run_program, lowered)
    assert result.instructions > 100_000


def test_prediction_evaluation_speed(benchmark, runner):
    target = runner.run("spice2g6", "greybig")
    profile = BranchProfile.from_run(runner.run("spice2g6", "greysmall"))
    predictor = ProfilePredictor(profile)
    report = benchmark(evaluate_static, target, predictor)
    assert report.branch_execs > 0


def _compile_all(monkeypatch, repeats):
    """Compile every workload ``repeats`` times: per-stage seconds (best
    of the repeats, summed over the workloads) and pass calls per pass."""
    calls = collections.Counter()

    def counted(entry):
        def run(func, const_globals):
            calls[entry.name] += 1
            return entry.run(func, const_globals)

        return dataclasses.replace(entry, run=run)

    workloads = list(all_workloads())
    with monkeypatch.context() as patch:
        patch.setattr(
            pipeline, "PASSES", [counted(entry) for entry in pipeline.PASSES]
        )
        for workload in workloads:
            compile_source(workload.source, name=workload.name)

    best = {}
    with monkeypatch.context() as patch:
        seconds = collections.Counter()
        for stage, attribute in COMPILE_STAGES.items():
            timed = _timed(getattr(compiler, attribute), stage, seconds)
            patch.setattr(compiler, attribute, timed)
        for _ in range(repeats):
            seconds.clear()
            for workload in workloads:
                started = time.perf_counter()
                program = compile_source(workload.source, name=workload.name)
                seconds["compile"] += time.perf_counter() - started
                started = time.perf_counter()
                compiled(predecode(program.lowered), False)
                seconds["plain_variants"] += time.perf_counter() - started
            for stage, value in seconds.items():
                best[stage] = min(best.get(stage, value), value)
    return {stage: round(value, 4) for stage, value in best.items()}, dict(calls)


def _timed(function, stage, seconds):
    def timed(*args, **kwargs):
        started = time.perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            seconds[stage] += time.perf_counter() - started

    return timed


def _report(stages, calls):
    print(
        "\ncompile 15 workloads: "
        + ", ".join(f"{stage} {value:.3f}s" for stage, value in stages.items())
        + f"; pass calls {calls}"
    )


def test_smoke_compile_all_workloads(monkeypatch):
    stages, calls = _compile_all(monkeypatch, SMOKE_REPEATS)
    _report(stages, calls)
    assert calls == PASS_CALLS
    assert stages["compile"] <= COMPILE_CEILING_S, (
        f"compiling the 15 workloads took {stages['compile']:.2f}s, over "
        f"the {COMPILE_CEILING_S}s ceiling"
    )


def test_full_compile_benchmark(monkeypatch):
    """Time the 15 compiles best of ``FULL_REPEATS`` and record
    BENCH_COMPILE.json."""
    stages, calls = _compile_all(monkeypatch, FULL_REPEATS)
    _report(stages, calls)
    try:
        previous = json.loads(BENCH_PATH.read_text())
        before = {key: previous[key] for key in ("date", "seconds", "pass_calls")}
    except (OSError, ValueError, KeyError):
        before = None
    report = {
        "benchmark": "compile_all_workloads",
        "date": time.strftime("%Y-%m-%d"),
        "python": platform.python_version(),
        "repeats": FULL_REPEATS,
        "seconds": stages,
        "pass_calls": calls,
        "before": before,
    }
    BENCH_PATH.write_text(json.dumps(report, indent=2) + "\n")
