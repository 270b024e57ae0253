"""Tournament predictor: bimodal vs gshare with a chooser table.

McFarling's combining scheme (the Alpha 21264 shape): both component
predictors run on every branch; a table of 2-bit chooser counters,
indexed by branch address, learns per-address which component to trust.
The chooser only trains when the components disagree.

The components are a real ``bimodal@N`` and ``gshare@N``: one pass of the
tournament advances them exactly as their standalone simulations would
and, as a monitor, also counts their mispredicts, so a zoo scores all
three models from that one pass (see :func:`repro.dynamic.base.monitors_for`).
"""
from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from repro.dynamic.base import DynamicPredictor, check_table_size
from repro.dynamic.bimodal import BimodalPredictor
from repro.dynamic.gshare import GSharePredictor
from repro.ir.instructions import BranchId

#: Width of each mispredict tally in the loop's one packed count: the
#: tournament's in the low field, then bimodal's, then gshare's.
_FIELD = 40
_FIELD_MASK = (1 << _FIELD) - 1


def _counter_step(state: int, taken: bool) -> int:
    """A 2-bit saturating counter's next state."""
    return min(state + 1, 3) if taken else max(state - 1, 0)


def _step_table() -> List[Tuple[int, int, int]]:
    """The whole predict-then-train step, for every state it can meet.

    The simulation loop keeps one *entry* ``(bimodal << 2 | choice) << 3``
    per slot and one ``gshare << 1`` per gshare counter, so an event's key
    is ``entry | gshare | taken``.  Item ``key`` holds the next entry, the
    next gshare value and the event's packed mispredicts (tournament,
    bimodal, gshare; see ``_FIELD``).
    """
    table = []
    for key in range(1 << 7):
        bimodal, choice, gshare = key >> 5, key >> 3 & 3, key >> 1 & 3
        taken = key & 1
        from_bimodal, from_gshare = bimodal >= 2, gshare >= 2
        predicted = from_gshare if choice >= 2 else from_bimodal
        if from_bimodal != from_gshare:
            choice = _counter_step(choice, from_gshare == taken)
        table.append((
            (_counter_step(bimodal, taken) << 2 | choice) << 3,
            _counter_step(gshare, taken) << 1,
            (predicted != taken)
            | (from_bimodal != taken) << _FIELD
            | (from_gshare != taken) << 2 * _FIELD,
        ))
    return table


_STEP = _step_table()


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
        self.bimodal.fed_by = self.gshare.fed_by = self
        self.name = f"tournament@{table_size}"
        self._mask = table_size - 1
        history_mask = (1 << self.gshare.history_bits) - 1
        # Item ``history << 1 | taken`` is the next gshare history.
        self._next_history = [
            index & history_mask
            for index in range(2 << self.gshare.history_bits)
        ]
        self._chooser: List[int] = []
        self._slots: List[int] = []
        self._entries: List[int] = []
        self._global_states: List[int] = []

    def reset(self, branch_table: Sequence[BranchId]) -> None:
        self.bimodal.reset(branch_table)
        self.gshare.reset(branch_table)
        # The chooser is indexed like the bimodal table: pc & mask.
        self._slots = self.bimodal._slots
        self._chooser = [1] * self.table_size
        # The simulation's own state, packed as in ``_step_table``: the
        # components' tables and the chooser are copies of it, brought up
        # to date by ``write_back``.
        self._entries = [
            state << 5 | choice << 3
            for state, choice in zip(self.bimodal._table, self._chooser)
        ]
        self._global_states = [state << 1 for state in self.gshare._table]

    def on_run_start(self, branch_table: Sequence[BranchId]) -> None:
        super().on_run_start(branch_table)
        for component in (self.bimodal, self.gshare):
            component.executions = component.mispredicts = 0

    def replay(self, chunk: List[int]) -> None:
        outcomes = chunk[0::2]
        packed = self._simulate_all(outcomes)
        for model, shift in (
            (self, 0), (self.bimodal, _FIELD), (self.gshare, 2 * _FIELD)
        ):
            model.executions += len(outcomes)
            model.mispredicts += packed >> shift & _FIELD_MASK

    def simulate(self, outcomes: Iterable[int]) -> int:
        mispredicts = self._simulate_all(outcomes) & _FIELD_MASK
        self.write_back()
        return mispredicts

    def on_run_end(self, icount: int) -> None:
        self.write_back()

    def _simulate_all(self, outcomes: Iterable[int]) -> int:
        """Simulate the tournament and its components; returns the three
        mispredict counts packed as in ``_step_table``.  Only the packed
        state advances: a replay pays for no unpacking."""
        entries = self._entries
        global_states = self._global_states
        slots = self._slots
        mask = self._mask
        next_history = self._next_history
        step = _STEP
        history = self.gshare._history
        packed = 0
        for outcome in outcomes:
            slot = slots[outcome]
            global_slot = (slot ^ history) & mask
            taken = outcome & 1
            entries[slot], global_states[global_slot], missed = step[
                entries[slot] | global_states[global_slot] | taken
            ]
            packed += missed
            history = next_history[history << 1 | taken]
        self.gshare._history = history
        return packed

    def write_back(self) -> None:
        """Unpack the simulation's state into the bimodal and gshare
        tables and the chooser (each component's ``snapshot`` calls this)."""
        entries = self._entries
        self.bimodal._table[:] = [entry >> 5 for entry in entries]
        self._chooser[:] = [entry >> 3 & 3 for entry in entries]
        self.gshare._table[:] = [state >> 1 for state in self._global_states]

    def budget_bits(self) -> Optional[int]:
        return (
            self.bimodal.budget_bits()
            + self.gshare.budget_bits()
            + self.table_size * 2
        )

    def snapshot(self) -> Tuple:
        self.write_back()
        return (
            self.bimodal.snapshot(),
            self.gshare.snapshot(),
            tuple(self._chooser),
        )
