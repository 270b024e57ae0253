"""gshare: global history XOR branch address into a shared counter table.

McFarling's scheme: a single global shift register of recent outcomes is
XORed with the branch address to index the counter table, so the same
branch can use different counters in different history contexts — and
different branches can constructively or destructively alias.
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


class GSharePredictor(DynamicPredictor):
    """Global-history-XOR-address indexed table of 2-bit counters.

    Counters start at 0 and predict taken at 2 or more; the history
    register holds log2(table_size) outcomes (at least one).
    """

    def __init__(self, table_size: int = 1024) -> None:
        check_table_size(table_size)
        self.table_size = table_size
        self.history_bits = max(1, table_size.bit_length() - 1)
        self.name = f"gshare@{table_size}"
        self._mask = table_size - 1
        self._after_not_taken, self._after_taken = history_shifts(
            self.history_bits
        )
        self._history = 0
        self._table: List[int] = []
        self._slots: List[int] = []

    def reset(self, branch_table: Sequence[BranchId]) -> None:
        # (pc ^ history) & mask == (pc & mask ^ history) & mask: mask the
        # addresses once here, not once per event.
        mask = self._mask
        self._slots = outcome_slots(
            branch_pc(bid) & mask for bid in branch_table
        )
        self._table = [0] * self.table_size
        self._history = 0

    def simulate(self, outcomes: Iterable[int]) -> int:
        table = self._table
        slots = self._slots
        mask = self._mask
        after_not_taken = self._after_not_taken
        after_taken = self._after_taken
        history = self._history
        mispredicts = 0
        for outcome in outcomes:
            slot = (slots[outcome] ^ history) & mask
            state = table[slot]
            if outcome & 1:
                if state < 2:
                    mispredicts += 1
                if state < 3:
                    table[slot] = state + 1
                history = after_taken[history]
            else:
                if state >= 2:
                    mispredicts += 1
                if state:
                    table[slot] = state - 1
                history = after_not_taken[history]
        self._history = history
        return mispredicts

    def budget_bits(self) -> Optional[int]:
        return self.table_size * 2 + self.history_bits

    def snapshot(self) -> Tuple:
        if self.fed_by is not None:
            self.fed_by.write_back()
        return (tuple(self._table), self._history)
