"""Branch profiles: accumulated per-branch (executed, taken) counts.

A profile is what the paper's IFPROBBER database holds for one program —
possibly accumulated over many runs and datasets — and is the input to
profile-based static prediction.  Counts may be fractional: the paper's
*scaled* summary predictor divides each dataset's counts by that dataset's
total branch executions before summing.
"""
from __future__ import annotations

import dataclasses
from typing import Dict, Iterator, Mapping, Optional, Tuple

from repro.ir.instructions import BranchId
from repro.vm.counters import RunResult

Counts = Tuple[float, float]  # (executed, taken)


@dataclasses.dataclass
class BranchProfile:
    """Per-branch (executed, taken) counts for one program."""

    program: str
    counts: Dict[BranchId, Counts] = dataclasses.field(default_factory=dict)
    runs: int = 0

    @classmethod
    def from_run(cls, run: RunResult) -> "BranchProfile":
        """Build a profile from a single run's counters."""
        profile = cls(program=run.program, runs=1)
        for branch_id, (executed, taken) in run.branch_counts().items():
            profile.counts[branch_id] = (float(executed), float(taken))
        return profile

    def add_profile(self, other: "BranchProfile", weight: float = 1.0) -> None:
        """Accumulate another profile, optionally weighted."""
        for branch_id, (executed, taken) in other.counts.items():
            old_exec, old_taken = self.counts.get(branch_id, (0.0, 0.0))
            self.counts[branch_id] = (
                old_exec + executed * weight,
                old_taken + taken * weight,
            )
        self.runs += other.runs

    @property
    def total_executed(self) -> float:
        return sum(executed for executed, _ in self.counts.values())

    @property
    def total_taken(self) -> float:
        return sum(taken for _, taken in self.counts.values())

    def percent_taken(self) -> float:
        """Fraction of branch executions that were taken."""
        total = self.total_executed
        return self.total_taken / total if total else 0.0

    def direction(self, branch_id: BranchId) -> Optional[bool]:
        """Majority direction for a branch: True = taken.

        Exact ties predict not-taken (deterministic); unknown branches
        return ``None``.
        """
        counts = self.counts.get(branch_id)
        if counts is None:
            return None
        executed, taken = counts
        return taken > executed - taken

    def __contains__(self, branch_id: BranchId) -> bool:
        return branch_id in self.counts

    def __iter__(self) -> Iterator[BranchId]:
        return iter(self.counts)

    def __len__(self) -> int:
        return len(self.counts)

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-serializable representation."""
        return {
            "program": self.program,
            "runs": self.runs,
            "counts": {
                f"{branch_id.function}#{branch_id.index}": [executed, taken]
                for branch_id, (executed, taken) in sorted(self.counts.items())
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "BranchProfile":
        profile = cls(program=data["program"], runs=int(data["runs"]))
        # ``tuple.__new__`` builds the same ``BranchId`` as the
        # constructor, without its Python-level ``__new__``: every upload
        # and predict decodes a profile.
        new = tuple.__new__
        for key, (executed, taken) in data["counts"].items():
            function, _, index = key.rpartition("#")
            profile.counts[new(BranchId, (function, int(index)))] = (
                float(executed),
                float(taken),
            )
        return profile
