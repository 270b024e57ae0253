"""Tournament predictor: bimodal vs gshare with a chooser table.

McFarling's combining scheme (the Alpha 21264 shape): both component
predictors run on every branch; a table of 2-bit chooser counters,
indexed by branch address, learns per-address which component to trust.
The chooser only trains when the components disagree.
"""
from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.dynamic.base import DynamicPredictor, branch_pc, check_table_size
from repro.dynamic.bimodal import BimodalPredictor
from repro.dynamic.gshare import GSharePredictor
from repro.ir.instructions import BranchId


class TournamentPredictor(DynamicPredictor):
    """Chooser-selected hybrid of a bimodal and a gshare component.

    Chooser counters: >= 2 trusts the global (gshare) component, < 2 the
    bimodal one; they start at 1 (weakly bimodal) so early loop-heavy
    behaviour is served while gshare's history warms up.
    """

    def __init__(self, table_size: int = 1024) -> None:
        check_table_size(table_size)
        self.table_size = table_size
        self.bimodal = BimodalPredictor(table_size=table_size)
        self.gshare = GSharePredictor(table_size=table_size)
        self.name = f"tournament@{table_size}"
        self._mask = table_size - 1
        self._chooser: List[int] = []
        self._slots: List[int] = []

    def reset(self, branch_table: Sequence[BranchId]) -> None:
        self.bimodal.reset(branch_table)
        self.gshare.reset(branch_table)
        mask = self._mask
        self._slots = [branch_pc(bid) & mask for bid in branch_table]
        self._chooser = [1] * self.table_size

    def observe(self, index: int, taken: bool) -> bool:
        from_bimodal = self.bimodal.observe(index, taken)
        from_gshare = self.gshare.observe(index, taken)
        slot = self._slots[index]
        state = self._chooser[slot]
        predicted = from_gshare if state >= 2 else from_bimodal
        if from_bimodal != from_gshare:
            if from_gshare == taken:
                if state < 3:
                    self._chooser[slot] = state + 1
            elif state > 0:
                self._chooser[slot] = state - 1
        return predicted

    def budget_bits(self) -> Optional[int]:
        return (
            self.bimodal.budget_bits()
            + self.gshare.budget_bits()
            + self.table_size * 2
        )

    def snapshot(self) -> Tuple:
        return (
            self.bimodal.snapshot(),
            self.gshare.snapshot(),
            tuple(self._chooser),
        )
