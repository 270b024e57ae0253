"""Benchmark: the engine's throughput vs the original dispatch loop.

The VM engine is the substrate-wide hot path — every table and
figure is arithmetic over millions of simulated RISC-ops — so this is
the repo's first recorded perf point (``BENCH_VM.json``).  The baseline
is the original tuple-dispatch loop, kept in ``tests/legacy_vm.py`` as
the counter oracle.  The smoke test guards the engine in CI with a
conservative speedup floor (the point is catching a silent regression to
legacy-loop throughput, not chasing the exact multiple on a noisy
runner); the full benchmark sweeps every bundled workload x dataset,
checks bit-identity against the legacy loop as it goes, and rewrites
``BENCH_VM.json``, for the plain variant and for the recording variant
under a no-op monitor.  The rewrite keeps the fast-engine numbers it
replaces as its ``before`` half, so each refresh is a before/after pair;
it also records how many functions the engine generates, how long
generating and compiling them takes and the resident memory they add.  A
second smoke test holds monitored runs (a no-op monitor) to the same
floor, and a third pins four deterministic counts of the generated plain
source: its lines, its run-time bounds checks, its instruction-limit
checks and its path counters.
"""
import dataclasses
import gc
import json
import os
import platform
import re
import time
from pathlib import Path

from repro.compiler import compile_source
from repro.vm.engine import _function_source, compiled, predecode
from repro.vm.machine import run_program
from repro.vm.monitors import BranchMonitor
from repro.workloads import registry
from tests.legacy_vm import LegacyMachine

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_VM.json"

#: CI floor: the engine measures about 5.1x overall (3.2x on the most
#: call-heavy workload, 6-8x on compute kernels, about 7.8x on this mix,
#: 4.4x monitored on its mix); anything under 1.4x on either mix means the
#: fast path stopped being fast.
SMOKE_FLOOR = 1.4

#: A small compute + control mix for the smoke check.
SMOKE_RUNS = [("nasa7", None), ("espresso", None)]

#: The monitored smoke check adds the call-heavy li.
MONITORED_SMOKE_RUNS = ["nasa7", "espresso", "li"]

#: Lines of generated plain source over the 15 workloads, the
#: ``LOAD``/``STORE`` bounds checks left in it for run time, its
#: instruction-limit checks (one per function and one per arm) and its
#: path counters (one per distinct set of events a path counts, per
#: program).  Exact: a change to the code generator that moves any of
#: them must update them.
GENERATED_LINES = 18545
BOUNDS_CHECKS = 693
LIMIT_CHECKS = 367
PATH_COUNTERS = 1162


class NoOpMonitor(BranchMonitor):
    """Takes every chunk and does nothing with it, so a monitored run
    times the engine's recording and chunking, not a predictor."""

    def replay(self, chunk):
        pass


def _compiled(workload_name):
    workload = registry.get_workload(workload_name)
    return workload, compile_source(workload.source, name=workload_name).lowered


def _timed_run(run, program, data, monitored):
    monitors = [NoOpMonitor()] if monitored else []
    started = time.perf_counter()
    result = run(program, input_data=data, monitors=monitors)
    return time.perf_counter() - started, result


def _measure(workload, program, dataset_names=None, monitored=False):
    """Per-workload (instructions, legacy_seconds, fast_seconds); the fast
    timing is the warm path (the compiled variant cached on the
    LoweredProgram), which is what every sweep after the first run pays."""
    legacy = LegacyMachine().run
    compiled(predecode(program), monitored)  # build outside the timed region
    instructions = 0
    legacy_seconds = fast_seconds = 0.0
    for dataset in workload.datasets:
        if dataset_names is not None and dataset.name not in dataset_names:
            continue
        legacy_time, legacy_result = _timed_run(
            legacy, program, dataset.data, monitored
        )
        fast_time, fast_result = _timed_run(
            run_program, program, dataset.data, monitored
        )
        assert dataclasses.astuple(fast_result) == dataclasses.astuple(
            legacy_result
        ), (workload.name, dataset.name)
        instructions += legacy_result.instructions
        legacy_seconds += legacy_time
        fast_seconds += fast_time
    return instructions, legacy_seconds, fast_seconds


def _smoke(workload_names, monitored):
    """The engine's speedup over the legacy loop on the smallest dataset
    of each workload."""
    instructions = 0
    legacy_seconds = fast_seconds = 0.0
    for workload_name in workload_names:
        workload, program = _compiled(workload_name)
        smallest = min(workload.datasets, key=lambda ds: len(ds.data))
        count, legacy_time, fast_time = _measure(
            workload, program, dataset_names={smallest.name}, monitored=monitored
        )
        instructions += count
        legacy_seconds += legacy_time
        fast_seconds += fast_time

    speedup = legacy_seconds / fast_seconds
    print(
        f"\nVM engine {'monitored ' if monitored else ''}smoke: "
        f"{instructions / 1e6:.1f}M ops, "
        f"legacy {instructions / legacy_seconds / 1e6:.2f} Mops/s, "
        f"fast {instructions / fast_seconds / 1e6:.2f} Mops/s, "
        f"speedup {speedup:.2f}x"
    )
    assert speedup >= SMOKE_FLOOR, (
        f"fast engine speedup {speedup:.2f}x fell below the "
        f"{SMOKE_FLOOR}x floor — did the fast path regress to the "
        "legacy loop?"
    )


def test_smoke_vm_engine_speedup():
    _smoke([name for name, _ in SMOKE_RUNS], monitored=False)


def test_smoke_vm_monitored_speedup():
    _smoke(MONITORED_SMOKE_RUNS, monitored=True)


def _bounds_checks(source):
    """The ``if``\\ s in ``source`` (a list of lines) whose own body, not
    a block nested in it, raises a bad-address fault."""
    checks = 0
    for pos, line in enumerate(source):
        text = line.lstrip()
        if not text.startswith("if "):
            continue
        indent = len(line) - len(text)
        for body in source[pos + 1:]:
            depth = len(body) - len(body.lstrip())
            if depth <= indent:
                break
            if depth == indent + 4 and "bad address" in body:
                checks += 1
                break
    return checks


def _generated_code(programs):
    """Lines of plain source the engine generates for ``programs``, the
    run-time bounds checks among them, the instruction-limit checks and
    the path counters bumped."""
    lines = checks = limit_checks = path_counters = 0
    for program in programs:
        decoded = predecode(program)
        counters = set()
        for index in range(len(decoded.functions)):
            source = _function_source(decoded, index, False).splitlines()
            lines += len(source)
            checks += _bounds_checks(source)
            limit_checks += sum(
                line.strip() == "if icount > limit:" for line in source
            )
            counters.update(
                line.split()[0]
                for line in source
                if re.fullmatch(r"\s*p\d+ \+= 1", line)
            )
        path_counters += len(counters)
    return {
        "lines": lines,
        "bounds_checks": checks,
        "limit_checks": limit_checks,
        "path_counters": path_counters,
    }


def test_smoke_generated_code_counts():
    programs = [_compiled(name)[1] for name in registry.workload_names()]
    counts = _generated_code(programs)
    print(f"\nVM engine generated code: {counts}")
    assert counts == {
        "lines": GENERATED_LINES,
        "bounds_checks": BOUNDS_CHECKS,
        "limit_checks": LIMIT_CHECKS,
        "path_counters": PATH_COUNTERS,
    }


def _resident_mb():
    """This process's resident set size in MB (Linux), else None."""
    try:
        with open("/proc/self/statm") as handle:
            pages = int(handle.read().split()[1])
    except OSError:
        return None
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def _build_plain_variants(programs):
    """Analyse every program and generate and compile its plain variant:
    (functions generated, seconds, added MB)."""
    gc.collect()
    resident = _resident_mb()
    started = time.perf_counter()
    codes = [compiled(predecode(program), False) for program in programs]
    seconds = time.perf_counter() - started
    gc.collect()
    after = _resident_mb()
    count = sum(len(program_codes) for program_codes in codes)
    added = None if resident is None else round(after - resident, 2)
    return count, round(seconds, 3), added


#: The fast-engine fields of a report, overall and per workload.
FAST_FIELDS = ("fast_mops", "speedup", "monitored_fast_mops", "monitored_speedup")


def _fast_half(entry):
    return {key: entry[key] for key in FAST_FIELDS if key in entry}


def _previous_fast_numbers():
    """The fast-engine half of the report being replaced, as ``before``.

    Its speedups over the unchanged legacy loop compare across runs on a
    host whose speed drifts; its Mops/s compare only on a quiet one.
    """
    try:
        previous = json.loads(BENCH_PATH.read_text())
    except (OSError, ValueError):
        return None
    return {
        "date": previous.get("date"),
        "overall": _fast_half(previous["overall"]),
        "monitored": _fast_half(previous.get("monitored", {})),
        "generated_code": previous.get("generated_code"),
        "workloads": {
            name: _fast_half(entry) for name, entry in previous["workloads"].items()
        },
    }


def _sweep(programs, monitored):
    """Per workload and overall: instructions, legacy and fast Mops/s and
    the speedup, over every dataset of every program."""
    workloads = {}
    total_instructions = 0
    total_legacy = total_fast = 0.0
    for workload, program in programs:
        instructions, legacy_seconds, fast_seconds = _measure(
            workload, program, monitored=monitored
        )
        workloads[workload.name] = {
            "instructions": instructions,
            "legacy_mops": round(instructions / legacy_seconds / 1e6, 2),
            "fast_mops": round(instructions / fast_seconds / 1e6, 2),
            "speedup": round(legacy_seconds / fast_seconds, 2),
        }
        total_instructions += instructions
        total_legacy += legacy_seconds
        total_fast += fast_seconds
    overall = {
        "legacy_mops": round(total_instructions / total_legacy / 1e6, 2),
        "fast_mops": round(total_instructions / total_fast / 1e6, 2),
        "speedup": round(total_legacy / total_fast, 2),
    }
    return total_instructions, overall, workloads


def test_full_vm_engine_benchmark():
    """Sweep every bundled workload x dataset with each variant and record
    BENCH_VM.json."""
    programs = [_compiled(name) for name in registry.workload_names()]
    count, build_seconds, added_mb = _build_plain_variants(
        [program for _, program in programs]
    )
    total_instructions, overall, workloads = _sweep(programs, monitored=False)
    _, monitored, monitored_workloads = _sweep(programs, monitored=True)
    for name, entry in monitored_workloads.items():
        workloads[name]["monitored_fast_mops"] = entry["fast_mops"]
        workloads[name]["monitored_speedup"] = entry["speedup"]
    generated = _generated_code([program for _, program in programs])
    report = {
        "benchmark": "vm_engine_throughput",
        "date": time.strftime("%Y-%m-%d"),
        "python": platform.python_version(),
        "total_instructions": total_instructions,
        "overall": overall,
        "monitored": monitored,
        "compiled_functions": {
            "count": count,
            "build_s": build_seconds,
            "added_rss_mb": added_mb,
        },
        "generated_code": generated,
        "before": _previous_fast_numbers(),
        "workloads": workloads,
    }
    BENCH_PATH.write_text(json.dumps(report, indent=2) + "\n")
    print(
        f"\nVM engine full sweep: {total_instructions / 1e6:.0f}M ops, "
        f"legacy {overall['legacy_mops']:.2f} Mops/s, "
        f"fast {overall['fast_mops']:.2f} Mops/s, "
        f"speedup {overall['speedup']:.2f}x; monitored "
        f"{monitored['fast_mops']:.2f} Mops/s, {monitored['speedup']:.2f}x; "
        f"{count} functions generated in {build_seconds:.2f}s "
        f"(+{added_mb} MB) -> {BENCH_PATH.name}"
    )
    assert overall["speedup"] >= 2.0, (
        f"tentpole target is >=2x unmonitored throughput, "
        f"got {overall['speedup']:.2f}x"
    )
