"""Tournament predictor: bimodal vs gshare with a chooser table.

McFarling's combining scheme (the Alpha 21264 shape): both component
predictors run on every branch; a table of 2-bit chooser counters,
indexed by branch address, learns per-address which component to trust.
The chooser only trains when the components disagree.
"""
from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from repro.dynamic.base import DynamicPredictor, check_table_size
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
        # The chooser is indexed like the bimodal table: pc & mask.
        self._slots = self.bimodal._slots
        self._chooser = [1] * self.table_size

    def simulate(self, outcomes: Iterable[int]) -> int:
        # The bimodal and gshare steps are inlined on the components' own
        # state, which ends exactly where their standalone simulations would.
        bimodal = self.bimodal._table
        gshare = self.gshare._table
        after_not_taken = self.gshare._after_not_taken
        after_taken = self.gshare._after_taken
        history = self.gshare._history
        chooser = self._chooser
        slots = self._slots
        mask = self._mask
        mispredicts = 0
        for outcome in outcomes:
            slot = slots[outcome]
            global_slot = (slot ^ history) & mask
            local_state = bimodal[slot]
            global_state = gshare[global_slot]
            from_bimodal = local_state >= 2
            from_gshare = global_state >= 2
            taken = outcome & 1
            if taken:
                if local_state < 3:
                    bimodal[slot] = local_state + 1
                if global_state < 3:
                    gshare[global_slot] = global_state + 1
                history = after_taken[history]
            else:
                if local_state:
                    bimodal[slot] = local_state - 1
                if global_state:
                    gshare[global_slot] = global_state - 1
                history = after_not_taken[history]
            if from_bimodal == from_gshare:
                if from_bimodal != taken:
                    mispredicts += 1
            else:
                choice = chooser[slot]
                if from_gshare == taken:
                    if choice < 2:
                        mispredicts += 1
                    if choice < 3:
                        chooser[slot] = choice + 1
                else:
                    if choice >= 2:
                        mispredicts += 1
                    if choice:
                        chooser[slot] = choice - 1
        self.gshare._history = history
        return mispredicts

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
