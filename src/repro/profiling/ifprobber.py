"""The IFPROBBER driver: profile a program's runs and feed counts back.

Reproduces the paper's tool flow:

1. compile the program (instrumentation is implicit — the VM counts every
   conditional branch),
2. run it over one or more datasets, accumulating counters in a
   :class:`~repro.profiling.database.ProfileDatabase`,
3. feed the accumulated counts back into the source as ``IFPROB``
   directives, from which a later compilation can read the predictions.
"""
from __future__ import annotations

from typing import Dict, Mapping, Optional

from repro.compiler import CompiledProgram, compile_source
from repro.lang.directives import apply_feedback
from repro.profiling.branch_profile import BranchProfile
from repro.profiling.database import ProfileDatabase
from repro.vm.counters import RunResult
from repro.vm.machine import run_program


class IfProbber:
    """Profiles one program over datasets and produces feedback source."""

    def __init__(
        self,
        source: str,
        name: str = "program",
        database: Optional[ProfileDatabase] = None,
    ) -> None:
        self.source = source
        self.name = name
        self.compiled: CompiledProgram = compile_source(source, name=name)
        self.database = database if database is not None else ProfileDatabase()

    def run_dataset(self, dataset: str, input_data: bytes) -> RunResult:
        """Run the instrumented program on one dataset and record counters."""
        result = run_program(self.compiled.lowered, input_data=input_data)
        self.database.record(result, dataset)
        return result

    def accumulated_profile(self) -> BranchProfile:
        """The database's accumulated counts for this program."""
        return self.database.program_profile(self.name)

    def feedback_source(self, profile: Optional[BranchProfile] = None) -> str:
        """Source text with IFPROB directives for the accumulated counts."""
        if profile is None:
            profile = self.accumulated_profile()
        return annotate_source(self.source, profile)


def annotate_source(source: str, profile: BranchProfile) -> str:
    """``source`` with IFPROB directives for ``profile``'s counts.

    Fractional accumulated counts (from scaled combination) are rounded
    to integers for the directive text; direction is what matters.
    """
    counts: Dict = {}
    for branch_id, (executed, taken) in profile.counts.items():
        executed_int = max(int(round(executed)), 1)
        counts[branch_id] = (executed_int, min(int(round(taken)), executed_int))
    return apply_feedback(source, counts)


def profile_from_feedback(compiled: CompiledProgram) -> BranchProfile:
    """Recover a :class:`BranchProfile` from a program compiled from source
    that contained IFPROB directives."""
    profile = BranchProfile(program=compiled.name, runs=1)
    feedback: Mapping = compiled.feedback
    for branch_id, (executed, taken) in feedback.items():
        profile.counts[branch_id] = (float(executed), float(taken))
    return profile
