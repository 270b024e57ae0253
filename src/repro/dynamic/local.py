"""Two-level local predictor: per-branch history into a pattern table.

Yeh & Patt's local scheme: the first level records each branch's own
recent outcome pattern (a shift register per branch-history-table entry);
the pattern selects a saturating counter in the shared second-level
pattern table.  Captures periodic per-branch behaviour (e.g. a loop that
runs exactly 4 iterations) that bimodal counters cannot.
"""
from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from repro.dynamic.base import (
    DynamicPredictor,
    branch_pc,
    check_table_size,
    history_shifts,
    outcome_slots,
)
from repro.ir.instructions import BranchId


class TwoLevelLocalPredictor(DynamicPredictor):
    """Per-branch history registers indexing a shared pattern table.

    ``table_size`` sets both levels: the number of history registers and
    the number of pattern-table counters.  Each register holds
    log2(table_size) outcomes (at least one); the counters are 2-bit,
    start at 0 and predict taken at 2 or more.
    """

    def __init__(self, table_size: int = 1024) -> None:
        check_table_size(table_size)
        self.table_size = table_size
        self.history_bits = max(1, table_size.bit_length() - 1)
        self.name = f"local@{table_size}"
        self._mask = table_size - 1
        self._after_not_taken, self._after_taken = history_shifts(
            self.history_bits
        )
        self._histories: List[int] = []
        self._patterns: List[int] = []
        self._slots: List[int] = []

    def reset(self, branch_table: Sequence[BranchId]) -> None:
        mask = self._mask
        self._slots = outcome_slots(
            branch_pc(bid) & mask for bid in branch_table
        )
        self._histories = [0] * self.table_size
        self._patterns = [0] * self.table_size

    def simulate(self, outcomes: Iterable[int]) -> int:
        slots = self._slots
        histories = self._histories
        patterns = self._patterns
        mask = self._mask
        after_not_taken = self._after_not_taken
        after_taken = self._after_taken
        mispredicts = 0
        for outcome in outcomes:
            slot = slots[outcome]
            history = histories[slot]
            pattern_slot = history & mask
            state = patterns[pattern_slot]
            if outcome & 1:
                if state < 2:
                    mispredicts += 1
                if state < 3:
                    patterns[pattern_slot] = state + 1
                histories[slot] = after_taken[history]
            else:
                if state >= 2:
                    mispredicts += 1
                if state:
                    patterns[pattern_slot] = state - 1
                histories[slot] = after_not_taken[history]
        return mispredicts

    def budget_bits(self) -> Optional[int]:
        return self.table_size * self.history_bits + self.table_size * 2

    def snapshot(self) -> Tuple:
        return (tuple(self._histories), tuple(self._patterns))
