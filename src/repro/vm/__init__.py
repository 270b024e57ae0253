"""The counting virtual machine (MFPixie analog) and its run results."""
from repro.vm.counters import ControlEvents, RunResult
from repro.vm.errors import InstructionLimitExceeded, VMError
from repro.vm.machine import (
    DEFAULT_MAX_CALL_DEPTH,
    DEFAULT_MAX_INSTRUCTIONS,
    Machine,
    run_program,
)
from repro.vm.monitors import (
    BranchMonitor,
    OutcomeRecorder,
    RunLengthMonitor,
)

__all__ = [
    "BranchMonitor",
    "ControlEvents",
    "DEFAULT_MAX_CALL_DEPTH",
    "DEFAULT_MAX_INSTRUCTIONS",
    "InstructionLimitExceeded",
    "Machine",
    "OutcomeRecorder",
    "RunLengthMonitor",
    "RunResult",
    "VMError",
    "run_program",
]
