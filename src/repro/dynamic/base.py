"""The dynamic-predictor interface and its shared machinery.

A *dynamic* predictor is hardware: it observes the branch-outcome stream
of one run and predicts each branch execution from state it updates as it
goes — the [Smith 81] / [Lee and Smith 84] schemes the paper compares its
static profile prediction against.  Unlike the static predictors in
``repro.prediction``, a dynamic predictor cannot be scored from aggregate
(executed, taken) counters: its behaviour depends on outcome *order*, so
it replays the run's outcome stream, which the VM buffers in bounded
chunks and hands over through the ``BranchMonitor`` hook (see
``repro.dynamic.score``).  Only the current chunk is held; no trace of a
whole run is stored.

Realism constraints the model zoo honors:

* **Finite tables.**  Real branch-history tables have a fixed number of
  entries; two branches whose hashed addresses collide share state
  (*aliasing*).  Every model takes a ``table_size`` (a power of two) and
  reports its hardware budget in bits, so static and dynamic prediction
  can be compared at equal cost.
* **Deterministic indexing.**  Table indices derive from a stable FNV-1a
  hash of the :class:`~repro.ir.instructions.BranchId` — never from
  Python's salted ``hash()`` — so a simulation is bit-identical across
  processes and interpreter invocations (the parallel runner depends on
  this).
* **Inspectable state.**  ``snapshot()`` exposes the complete mutable
  state as plain tuples, so determinism tests can assert two simulations
  ended in exactly the same place.
"""
from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from repro.ir.instructions import BranchId

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_FNV_MASK = 0xFFFFFFFFFFFFFFFF


def branch_pc(branch_id: BranchId) -> int:
    """A stable 64-bit "address" for a static branch (FNV-1a of its id).

    This stands in for the branch's program counter when indexing
    finite tables; it is deterministic across processes (unlike
    ``hash()``, which Python salts per interpreter).
    """
    value = _FNV_OFFSET
    for byte in f"{branch_id.function}#{branch_id.index}".encode():
        value = ((value ^ byte) * _FNV_PRIME) & _FNV_MASK
    return value


def check_table_size(table_size: int) -> int:
    """Validate a table size: a positive power of two (for mask indexing)."""
    if table_size < 1 or table_size & (table_size - 1):
        raise ValueError(
            f"table_size must be a positive power of two, got {table_size}"
        )
    return table_size


def outcome_slots(slots: Iterable[int]) -> List[int]:
    """Per-branch table slots spread over outcomes: entry ``index << 1 |
    taken`` holds branch ``index``'s slot, so a replay loop indexes by the
    outcome itself instead of shifting the direction out first."""
    return [slot for slot in slots for _ in (False, True)]


def history_shifts(history_bits: int) -> Tuple[List[int], List[int]]:
    """Next-state tables of a ``history_bits``-wide outcome shift register:
    ``(after_not_taken, after_taken)``, each indexed by the current
    history.  A replay loop then spends one list index per event on its
    history update instead of a shift, an or and a mask."""
    mask = (1 << history_bits) - 1
    return (
        [(history << 1) & mask for history in range(mask + 1)],
        [(history << 1 | 1) & mask for history in range(mask + 1)],
    )


class DynamicPredictor:
    """Interface: predict each branch execution from online state.

    Lifecycle: ``reset(branch_table)`` once per run, then ``replay`` over
    the run's outcomes in order, in chunks of any size.  An *outcome* is
    the int ``index << 1 | taken``, where ``index`` is the position in the
    run's static branch table: the form the VM records it in (see
    :mod:`repro.vm.monitors`).
    """

    #: Human-readable name for reports (e.g. ``bimodal@1024``).
    name = "dynamic"

    #: Table entries, or ``None`` for an idealized infinite table.
    table_size: Optional[int] = None

    def reset(self, branch_table: Sequence[BranchId]) -> None:
        """Clear all state and bind the run's static branch table."""
        raise NotImplementedError

    def replay(self, outcomes: Iterable[int]) -> int:
        """Predict each outcome, then train on it, in order; returns how
        many were mispredicted.  This loop is the model's only copy of its
        predict-then-train step and the hottest path in a simulation."""
        raise NotImplementedError

    def observe(self, index: int, taken: bool) -> bool:
        """Replay one branch execution; returns the direction that was
        predicted before the outcome was seen."""
        return taken != bool(self.replay((index << 1 | taken,)))

    def budget_bits(self) -> Optional[int]:
        """Hardware state in bits, or ``None`` when not meaningfully
        finite (infinite tables, software predictors)."""
        return None

    def snapshot(self) -> Tuple:
        """The complete mutable state, as nested plain tuples."""
        raise NotImplementedError
