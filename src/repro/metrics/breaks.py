"""Breaks in control: the paper's classification and counting rules.

* **Unavoidable breaks** — indirect calls and their returns (MF, like the
  paper's FORTRAN sample, has no assigned GOTO).
* **Avoidable breaks** — direct calls and returns (reported both included
  and excluded, Figure 1), and unconditional jumps (assumed eliminated by a
  good ILP compiler — never counted, matching the paper's assumption).
* Conditional branches count as breaks when unpredicted (Figure 1) or when
  mispredicted (Figure 2, ``PredictionReport.breaks``).
"""
from __future__ import annotations

import dataclasses

from repro.vm.counters import RunResult


@dataclasses.dataclass(frozen=True)
class BreakPolicy:
    """Which avoidable breaks to include.

    ``include_direct_calls`` adds direct calls and returns (Figure 1's
    white bars); jumps are never counted, per the paper's assumption that an
    ILP compiler eliminates them by code layout.
    """

    include_direct_calls: bool = False


def unavoidable_breaks(run: RunResult) -> int:
    """Indirect calls plus their returns."""
    return run.events.indirect_calls + run.events.indirect_returns


def unpredicted_breaks(run: RunResult, policy: BreakPolicy = BreakPolicy()) -> int:
    """Breaks when no branch prediction is attempted (Figure 1): every
    conditional branch execution plus unavoidable (and optionally direct
    call/return) breaks."""
    total = run.total_branch_execs + unavoidable_breaks(run)
    if policy.include_direct_calls:
        total += run.events.direct_calls + run.events.direct_returns
    return total
