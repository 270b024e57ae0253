"""Bimodal branch-history table: one n-bit saturating counter per entry.

The [Smith 81] scheme: each branch indexes a table of saturating
counters, all starting at 0; the counter's top half predicts taken.
``table_size=None`` gives every static branch its own counter — the
idealized infinite, unaliased table of the paper's 1-bit and 2-bit
hardware schemes — while a finite power-of-two table indexes by hashed
branch address and exhibits real aliasing.
"""
from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from repro.dynamic.base import (
    DynamicPredictor,
    branch_pc,
    check_table_size,
    outcome_slots,
)
from repro.ir.instructions import BranchId


class BimodalPredictor(DynamicPredictor):
    """n-bit saturating-counter BHT, optionally finite and aliased."""

    def __init__(
        self, table_size: Optional[int] = 1024, num_bits: int = 2
    ) -> None:
        if num_bits < 1:
            raise ValueError(f"num_bits must be >= 1, got {num_bits}")
        if table_size is not None:
            check_table_size(table_size)
        self.table_size = table_size
        self.num_bits = num_bits
        self.max_state = (1 << num_bits) - 1
        self.threshold = 1 << (num_bits - 1)
        size = "inf" if table_size is None else str(table_size)
        self.name = f"bimodal@{size}"
        self._table: List[int] = []
        self._slots: List[int] = []

    def reset(self, branch_table: Sequence[BranchId]) -> None:
        if self.table_size is None:
            self._slots = outcome_slots(range(len(branch_table)))
            self._table = [0] * len(branch_table)
        else:
            mask = self.table_size - 1
            self._slots = outcome_slots(
                branch_pc(bid) & mask for bid in branch_table
            )
            self._table = [0] * self.table_size

    def simulate(self, outcomes: Iterable[int]) -> int:
        table = self._table
        slots = self._slots
        top = self.max_state
        threshold = self.threshold
        mispredicts = 0
        for outcome in outcomes:
            slot = slots[outcome]
            state = table[slot]
            if outcome & 1:
                if state < threshold:
                    mispredicts += 1
                if state < top:
                    table[slot] = state + 1
            else:
                if state >= threshold:
                    mispredicts += 1
                if state:
                    table[slot] = state - 1
        return mispredicts

    def budget_bits(self) -> Optional[int]:
        if self.table_size is None:
            return None
        return self.table_size * self.num_bits

    def snapshot(self) -> Tuple:
        if self.fed_by is not None:
            self.fed_by.write_back()
        return (tuple(self._table),)
