"""Two-level local predictor: per-branch history into a pattern table.

Yeh & Patt's local scheme: the first level records each branch's own
recent outcome pattern (a shift register per branch-history-table entry);
the pattern selects a saturating counter in the shared second-level
pattern table.  Captures periodic per-branch behaviour (e.g. a loop that
runs exactly 4 iterations) that bimodal counters cannot.
"""
from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.dynamic.base import DynamicPredictor, branch_pc, check_table_size
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
        self._history_mask = (1 << self.history_bits) - 1
        self._histories: List[int] = []
        self._patterns: List[int] = []
        self._slots: List[int] = []

    def reset(self, branch_table: Sequence[BranchId]) -> None:
        mask = self._mask
        self._slots = [branch_pc(bid) & mask for bid in branch_table]
        self._histories = [0] * self.table_size
        self._patterns = [0] * self.table_size

    def observe(self, index: int, taken: bool) -> bool:
        slot = self._slots[index]
        history = self._histories[slot]
        patterns = self._patterns
        pattern_slot = history & self._mask
        state = patterns[pattern_slot]
        if taken:
            if state < 3:
                patterns[pattern_slot] = state + 1
            self._histories[slot] = ((history << 1) | 1) & self._history_mask
        else:
            if state > 0:
                patterns[pattern_slot] = state - 1
            self._histories[slot] = (history << 1) & self._history_mask
        return state >= 2

    def budget_bits(self) -> Optional[int]:
        return self.table_size * self.history_bits + self.table_size * 2

    def snapshot(self) -> Tuple:
        return (tuple(self._histories), tuple(self._patterns))
