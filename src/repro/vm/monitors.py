"""Branch monitors: online observers of the dynamic branch-outcome stream.

Static prediction can be evaluated after the fact from aggregate counts, but
some measurements depend on outcome *order* or *position*: dynamic
predictors (the 1-bit and 2-bit hardware schemes the paper compares against)
and the distribution of instruction run lengths between breaks (§3: "The
distribution of runs of instructions between mispredicted branches will not
be constant").  A monitor is attached to a VM run and receives every
conditional branch outcome along with the current executed-instruction
count.
"""
from __future__ import annotations

from typing import Dict, List, Sequence


class BranchMonitor:
    """Interface: receives each (branch_index, taken, instruction_count)."""

    def on_branch(self, branch_index: int, taken: bool, icount: int) -> None:
        raise NotImplementedError

    def on_run_start(self, num_branches: int) -> None:
        """Called once before execution with the static branch count."""

    def on_run_end(self, icount: int) -> None:
        """Called once after a normally-terminating run with the final
        executed-instruction count (both engines).
        Not called when the run aborts with a VM error or limit."""


class OutcomeRecorder(BranchMonitor):
    """Records the full outcome sequence (for tests and small programs only)."""

    def __init__(self) -> None:
        self.outcomes: List[tuple] = []

    def on_run_start(self, num_branches: int) -> None:
        self.outcomes = []

    def on_branch(self, branch_index: int, taken: bool, icount: int) -> None:
        self.outcomes.append((branch_index, taken))


class RunLengthMonitor(BranchMonitor):
    """Records instruction run lengths between mispredicted branches.

    Takes the per-branch static directions (index -> predicted taken) of
    some static predictor; each time a branch goes against its prediction,
    the number of instructions executed since the previous misprediction is
    recorded.  The paper's §3 point is that these runs are *not* evenly
    spaced — "far more ILP will be available if one has 80 instructions
    followed by two mispredicted branches than if one has 40 instructions,
    a mispredicted branch".
    """

    def __init__(self, directions: Sequence[bool]):
        self.directions = list(directions)
        self.run_lengths: List[int] = []
        self._last_break_icount = 0

    def on_run_start(self, num_branches: int) -> None:
        if len(self.directions) < num_branches:
            self.directions = self.directions + [False] * (
                num_branches - len(self.directions)
            )
        self.run_lengths = []
        self._last_break_icount = 0

    def on_branch(self, branch_index: int, taken: bool, icount: int) -> None:
        if taken != self.directions[branch_index]:
            self.run_lengths.append(icount - self._last_break_icount)
            self._last_break_icount = icount

    def on_run_end(self, icount: int) -> None:
        # Flush the tail run: instructions executed after the last
        # misprediction still form a (final, break-terminated-by-exit) run;
        # dropping them biases the mean/p90 low on workloads that end with
        # a long correctly-predicted stretch.
        if icount > self._last_break_icount:
            self.run_lengths.append(icount - self._last_break_icount)
            self._last_break_icount = icount

    # -- statistics ---------------------------------------------------------

    def stats(self) -> Dict[str, float]:
        """Summary statistics of the run-length distribution."""
        lengths = sorted(self.run_lengths)
        if not lengths:
            return {
                "count": 0, "mean": 0.0, "median": 0.0,
                "p10": 0.0, "p90": 0.0, "cv": 0.0,
            }
        count = len(lengths)
        mean = sum(lengths) / count
        variance = sum((value - mean) ** 2 for value in lengths) / count
        return {
            "count": count,
            "mean": mean,
            "median": float(lengths[count // 2]),
            "p10": float(lengths[int(count * 0.10)]),
            "p90": float(lengths[min(int(count * 0.90), count - 1)]),
            "cv": (variance ** 0.5) / mean if mean else 0.0,
        }
