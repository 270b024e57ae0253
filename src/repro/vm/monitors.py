"""Branch monitors: observers of the dynamic branch-outcome stream.

Static prediction can be evaluated after the fact from aggregate counts, but
some measurements depend on outcome *order* or *position*: dynamic
predictors (the 1-bit and 2-bit hardware schemes the paper compares against)
and the distribution of instruction run lengths between breaks (§3: "The
distribution of runs of instructions between mispredicted branches will not
be constant").  A monitor is attached to a VM run and is handed its
conditional-branch outcomes, with the executed-instruction count at each,
in chunks: the dispatch loop appends each event to a bounded buffer, and
each full buffer (then the tail) is replayed to every monitor.  A monitor
scores a chunk in one tight loop instead of being called once per event.

A chunk is a flat list holding two items per event, oldest first: the
*outcome* ``branch_index << 1 | taken`` and the executed-instruction count
``icount`` at the branch, exactly as the legacy interpreter reports it.
``chunk[0::2]`` slices out the outcomes and ``chunk[1::2]`` the counts at C
speed.  Two plain appends per event cost the dispatch loop less than
building a record object, or packing both fields into one int, would.
"""
from __future__ import annotations

from itertools import compress
from typing import TYPE_CHECKING, Dict, List, Sequence

from repro.ir.instructions import BranchId

if TYPE_CHECKING:
    from repro.prediction.base import StaticPredictor

#: Events buffered before the dispatch loop hands them to the monitors.
#: Bounds the buffer's memory whatever the length of the run.
CHUNK_EVENTS = 1 << 12


def deliver(monitors: Sequence["BranchMonitor"], chunk: List[int]) -> None:
    """Replay a chunk to every monitor, then empty it for reuse.  Both
    engines flush their buffers through this."""
    for monitor in monitors:
        monitor.replay(chunk)
    chunk.clear()


class BranchMonitor:
    """Interface: replays chunks of branch events (see the module docs).

    Lifecycle: ``on_run_start`` once, ``replay`` for each chunk in run
    order (every event is delivered exactly once, also when the run then
    aborts), and ``on_run_end`` once after a normal termination.
    """

    def on_run_start(self, branch_table: Sequence[BranchId]) -> None:
        """Called once before execution with the run's static branch
        table: an event's branch index is its position in this list."""

    def replay(self, chunk: List[int]) -> None:
        """Consume a chunk of ``outcome, icount`` pairs (see the module
        docs).  The list is reused once this returns, so a monitor must not
        keep it."""
        raise NotImplementedError

    def on_run_end(self, icount: int) -> None:
        """Called once after a normally-terminating run with the final
        executed-instruction count (both engines).
        Not called when the run aborts with a VM error or limit."""


class OutcomeRecorder(BranchMonitor):
    """Records the full outcome sequence (for tests and small programs only)."""

    def __init__(self) -> None:
        self.outcomes: List[tuple] = []

    def on_run_start(self, branch_table: Sequence[BranchId]) -> None:
        self.outcomes = []

    def replay(self, chunk: List[int]) -> None:
        self.outcomes.extend(
            (outcome >> 1, bool(outcome & 1)) for outcome in chunk[0::2]
        )


class RunLengthMonitor(BranchMonitor):
    """Records instruction run lengths between mispredicted branches.

    Takes any static predictor; each time a branch goes against the
    direction it predicts, the number of instructions executed since the
    previous misprediction is recorded.  The paper's §3 point is that these
    runs are *not* evenly spaced — "far more ILP will be available if one
    has 80 instructions followed by two mispredicted branches than if one
    has 40 instructions, a mispredicted branch".
    """

    def __init__(self, predictor: StaticPredictor):
        self.predictor = predictor
        self.run_lengths: List[int] = []
        self._last_break_icount = 0
        self._breaks: List[bool] = []

    def on_run_start(self, branch_table: Sequence[BranchId]) -> None:
        self.run_lengths = []
        self._last_break_icount = 0
        # Indexed by outcome: does it go against the static direction?
        self._breaks = [
            taken != predicted
            for predicted in map(self.predictor.predict, branch_table)
            for taken in (False, True)
        ]

    def replay(self, chunk: List[int]) -> None:
        # Breaks are rare: find them at C speed, walk only those in Python.
        breaks = compress(chunk[1::2], map(self._breaks.__getitem__, chunk[0::2]))
        lengths = self.run_lengths
        last = self._last_break_icount
        for icount in breaks:
            lengths.append(icount - last)
            last = icount
        self._last_break_icount = last

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
