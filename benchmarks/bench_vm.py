"""Benchmark: the engine's throughput vs the original dispatch loop.

The VM dispatch loop is the substrate-wide hot path — every table and
figure is arithmetic over millions of simulated RISC-ops — so this is
the repo's first recorded perf point (``BENCH_VM.json``).  The baseline
is the original tuple-dispatch loop, kept in ``tests/legacy_vm.py`` as
the counter oracle.  The smoke test guards the engine in CI with a
conservative speedup floor (the point is catching a silent regression to
legacy-loop throughput, not chasing the exact multiple on a noisy
runner); the full benchmark sweeps every bundled workload x dataset,
checks bit-identity against the legacy loop as it goes, and rewrites
``BENCH_VM.json``.  The rewrite keeps the fast-engine numbers it replaces
as its ``before`` half, so each refresh is a before/after pair; it also
records the superblocks' count, build time and added resident memory.
"""
import dataclasses
import gc
import json
import os
import platform
import time
from pathlib import Path

from repro.compiler import compile_source
from repro.vm.engine import OP_SUPERBLOCK, SUPERBLOCK_BLOCKS, predecode, superblocks
from repro.vm.machine import Machine
from repro.workloads import registry
from tests.legacy_vm import LegacyMachine

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_VM.json"

#: CI floor: the engine measures about 2.4x overall (1.5x on the most
#: control-heavy workload, 4x on compute kernels, about 3.9x on this mix);
#: anything under 1.4x on this mix means the fast path stopped being fast.
SMOKE_FLOOR = 1.4

#: A small compute + control mix for the smoke check.
SMOKE_RUNS = [("nasa7", None), ("espresso", None)]


def _compiled(workload_name):
    workload = registry.get_workload(workload_name)
    return workload, compile_source(workload.source, name=workload_name).lowered


def _timed_run(machine, program, data):
    started = time.perf_counter()
    result = machine.run(program, input_data=data)
    return time.perf_counter() - started, result


def _measure(workload, program, dataset_names=None):
    """Per-workload (instructions, legacy_seconds, fast_seconds); the fast
    timing is the warm path (decode and superblocks cached on the
    LoweredProgram), which is what every sweep after the first run pays."""
    fast = Machine()
    legacy = LegacyMachine()
    superblocks(predecode(program))  # build once, outside the timed region
    instructions = 0
    legacy_seconds = fast_seconds = 0.0
    for dataset in workload.datasets:
        if dataset_names is not None and dataset.name not in dataset_names:
            continue
        legacy_time, legacy_result = _timed_run(legacy, program, dataset.data)
        fast_time, fast_result = _timed_run(fast, program, dataset.data)
        assert dataclasses.astuple(fast_result) == dataclasses.astuple(
            legacy_result
        ), (workload.name, dataset.name)
        instructions += legacy_result.instructions
        legacy_seconds += legacy_time
        fast_seconds += fast_time
    return instructions, legacy_seconds, fast_seconds


def test_smoke_vm_engine_speedup():
    instructions = 0
    legacy_seconds = fast_seconds = 0.0
    for workload_name, _ in SMOKE_RUNS:
        workload, program = _compiled(workload_name)
        smallest = min(workload.datasets, key=lambda ds: len(ds.data))
        count, legacy_time, fast_time = _measure(
            workload, program, dataset_names={smallest.name}
        )
        instructions += count
        legacy_seconds += legacy_time
        fast_seconds += fast_time

    speedup = legacy_seconds / fast_seconds
    print(
        f"\nVM engine smoke: {instructions / 1e6:.1f}M ops, "
        f"legacy {instructions / legacy_seconds / 1e6:.2f} Mops/s, "
        f"fast {instructions / fast_seconds / 1e6:.2f} Mops/s, "
        f"speedup {speedup:.2f}x"
    )
    assert speedup >= SMOKE_FLOOR, (
        f"fast engine speedup {speedup:.2f}x fell below the "
        f"{SMOKE_FLOOR}x floor — did the fast path regress to the "
        "legacy loop?"
    )


def _resident_mb():
    """This process's resident set size in MB (Linux), else None."""
    try:
        with open("/proc/self/statm") as handle:
            pages = int(handle.read().split()[1])
    except OSError:
        return None
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def _build_superblocks(programs):
    """Build every program's superblocks: (count, seconds, added MB)."""
    for program in programs:
        predecode(program)
    gc.collect()
    resident = _resident_mb()
    started = time.perf_counter()
    codes = [superblocks(predecode(program)) for program in programs]
    seconds = time.perf_counter() - started
    gc.collect()
    after = _resident_mb()
    count = sum(
        ins[0] == OP_SUPERBLOCK
        for program_codes in codes
        for code in program_codes
        for ins in code
    )
    added = None if resident is None else round(after - resident, 2)
    return count, round(seconds, 3), added


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
        "fast_mops": previous["overall"]["fast_mops"],
        "speedup": previous["overall"]["speedup"],
        "workloads": {
            name: {"fast_mops": entry["fast_mops"], "speedup": entry["speedup"]}
            for name, entry in previous["workloads"].items()
        },
    }


def test_full_vm_engine_benchmark():
    """Sweep every bundled workload x dataset and record BENCH_VM.json."""
    compiled = [_compiled(name) for name in registry.workload_names()]
    count, build_seconds, added_mb = _build_superblocks(
        [program for _, program in compiled]
    )
    workloads = {}
    total_instructions = 0
    total_legacy = total_fast = 0.0
    for workload, program in compiled:
        instructions, legacy_seconds, fast_seconds = _measure(workload, program)
        workloads[workload.name] = {
            "instructions": instructions,
            "legacy_mops": round(instructions / legacy_seconds / 1e6, 2),
            "fast_mops": round(instructions / fast_seconds / 1e6, 2),
            "speedup": round(legacy_seconds / fast_seconds, 2),
        }
        total_instructions += instructions
        total_legacy += legacy_seconds
        total_fast += fast_seconds

    overall = legacy_mops, fast_mops, speedup = (
        round(total_instructions / total_legacy / 1e6, 2),
        round(total_instructions / total_fast / 1e6, 2),
        round(total_legacy / total_fast, 2),
    )
    report = {
        "benchmark": "vm_engine_throughput",
        "date": time.strftime("%Y-%m-%d"),
        "python": platform.python_version(),
        "unmonitored": True,
        "total_instructions": total_instructions,
        "overall": {
            "legacy_mops": legacy_mops,
            "fast_mops": fast_mops,
            "speedup": speedup,
        },
        "superblocks": {
            "blocks": SUPERBLOCK_BLOCKS,
            "count": count,
            "build_s": build_seconds,
            "added_rss_mb": added_mb,
        },
        "before": _previous_fast_numbers(),
        "workloads": workloads,
    }
    BENCH_PATH.write_text(json.dumps(report, indent=2) + "\n")
    print(
        f"\nVM engine full sweep: {total_instructions / 1e6:.0f}M ops, "
        f"legacy {legacy_mops:.2f} Mops/s, fast {fast_mops:.2f} Mops/s, "
        f"speedup {speedup:.2f}x, {count} superblocks built in "
        f"{build_seconds:.2f}s (+{added_mb} MB) -> {BENCH_PATH.name}"
    )
    assert overall[2] >= 2.0, (
        f"tentpole target is >=2x unmonitored throughput, got {speedup:.2f}x"
    )
