"""The counting virtual machine (the reproduction's MFPixie).

Executes a :class:`~repro.ir.lower.LoweredProgram`, counting every executed
RISC-level operation, every conditional-branch outcome (per static branch),
and every other control-transfer event.  Execution starts at ``main`` (which
takes no arguments); the program ends when ``main`` returns or a ``halt``
executes, and ``main``'s return value is the exit code.

:func:`run_program` runs the engine in :mod:`repro.vm.engine`, which compiles
each guest function once into one Python function (registers as locals,
guest calls as Python calls): through ``run_fast`` and the plain variant,
or, when branch observers are attached, through ``run_monitored`` and the
variant that records branch events.  ``tests/legacy_vm.py`` keeps the
original tuple-dispatch loop as the oracle; the differential harness in
``tests/test_vm_engine.py`` holds the engine to bit-identical
:class:`RunResult`\\ s (instructions, per-branch exec/taken counts, control
events, output, exit code) against it.
"""
from __future__ import annotations

from typing import Sequence

import repro.vm.engine as engine
from repro.ir.lower import LoweredProgram
from repro.vm.counters import RunResult
from repro.vm.errors import VMError
from repro.vm.monitors import BranchMonitor

#: Default per-run instruction budget: large enough for every workload,
#: small enough to catch runaway programs in seconds.
DEFAULT_MAX_INSTRUCTIONS = 200_000_000

#: Default call-depth limit (catches unbounded recursion).
DEFAULT_MAX_CALL_DEPTH = 10_000


def run_program(
    program: LoweredProgram,
    input_data: bytes = b"",
    monitors: Sequence[BranchMonitor] = (),
    max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
    max_call_depth: int = DEFAULT_MAX_CALL_DEPTH,
) -> RunResult:
    """Run ``program`` over ``input_data`` and return the measured counts."""
    main = program.functions[program.main_index]
    if main.num_params != 0:
        raise VMError("main must take no parameters")
    for monitor in monitors:
        monitor.on_run_start(program.branch_table)

    # The engine's names are looked up on the module at each call, so a
    # wrapper installed on ``repro.vm.engine`` sees every run.
    decoded = engine.predecode(program)
    if monitors:
        return engine.run_monitored(
            decoded, input_data, monitors, max_instructions, max_call_depth
        )
    return engine.run_fast(decoded, input_data, max_instructions, max_call_depth)
