"""gshare: global history XOR branch address into a shared counter table.

McFarling's scheme: a single global shift register of recent outcomes is
XORed with the branch address to index the counter table, so the same
branch can use different counters in different history contexts — and
different branches can constructively or destructively alias.
"""
from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.dynamic.base import DynamicPredictor, branch_pc, check_table_size
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
        self._history_mask = (1 << self.history_bits) - 1
        self._history = 0
        self._table: List[int] = []
        self._pcs: List[int] = []

    def reset(self, branch_table: Sequence[BranchId]) -> None:
        self._pcs = [branch_pc(bid) for bid in branch_table]
        self._table = [0] * self.table_size
        self._history = 0

    def observe(self, index: int, taken: bool) -> bool:
        slot = (self._pcs[index] ^ self._history) & self._mask
        table = self._table
        state = table[slot]
        if taken:
            if state < 3:
                table[slot] = state + 1
            self._history = ((self._history << 1) | 1) & self._history_mask
        else:
            if state > 0:
                table[slot] = state - 1
            self._history = (self._history << 1) & self._history_mask
        return state >= 2

    def budget_bits(self) -> Optional[int]:
        return self.table_size * 2 + self.history_bits

    def snapshot(self) -> Tuple:
        return (tuple(self._table), self._history)
