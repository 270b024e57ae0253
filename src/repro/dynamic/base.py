"""The dynamic-predictor interface and its shared machinery.

A *dynamic* predictor is hardware: it observes the branch-outcome stream
of one run and predicts each branch execution from state it updates as it
goes — the [Smith 81] / [Lee and Smith 84] schemes the paper compares its
static profile prediction against.  Unlike the static predictors in
``repro.prediction``, a dynamic predictor cannot be scored from aggregate
(executed, taken) counters: its behaviour depends on outcome *order*, so
it is itself a ``BranchMonitor``: attached to a VM run, it is bound to
the run's static branch table at start, replays the outcome stream the
VM buffers in bounded chunks, and counts its own executions and
mispredicts, so ``score(run)`` gives the same
:class:`~repro.prediction.evaluate.PredictionReport` that
``evaluate_static`` gives a static predictor: percent correct *and*
instructions per break, where breaks are mispredicted branches plus the
run's unavoidable breaks (indirect calls and their returns).  Only the
current chunk is held; no trace of a whole run is stored.

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
from repro.metrics.breaks import unavoidable_breaks
from repro.prediction.evaluate import PredictionReport
from repro.vm.counters import RunResult
from repro.vm.monitors import BranchMonitor

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
    taken`` holds branch ``index``'s slot, so a simulation loop indexes by the
    outcome itself instead of shifting the direction out first."""
    return [slot for slot in slots for _ in (False, True)]


def history_shifts(history_bits: int) -> Tuple[List[int], List[int]]:
    """Next-state tables of a ``history_bits``-wide outcome shift register:
    ``(after_not_taken, after_taken)``, each indexed by the current
    history.  A simulation loop then spends one list index per event on its
    history update instead of a shift, an or and a mask."""
    mask = (1 << history_bits) - 1
    return (
        [(history << 1) & mask for history in range(mask + 1)],
        [(history << 1 | 1) & mask for history in range(mask + 1)],
    )


class DynamicPredictor(BranchMonitor):
    """Interface: predict each branch execution from online state.

    As a monitor, ``on_run_start(branch_table)`` resets the model on the
    run's static branch table and its tallies, each ``replay(chunk)``
    simulates the chunk's outcomes, and ``score(run)`` reports the tallies
    against the observed run.  An *outcome* is the int ``index << 1 |
    taken``, where ``index`` is the position in the run's static branch
    table: the form the VM records it in (see :mod:`repro.vm.monitors`).
    """

    #: Human-readable name for reports (e.g. ``bimodal@1024``).
    name = "dynamic"

    #: Table entries, or ``None`` for an idealized infinite table.
    table_size: Optional[int] = None

    #: Branch executions and mispredicts replayed since the run started.
    executions = 0
    mispredicts = 0

    #: The model whose pass also advances and tallies this one (a
    #: tournament's components), or ``None`` for a model that is its own
    #: monitor.  See :func:`monitors_for`.
    fed_by: Optional["DynamicPredictor"] = None

    def reset(self, branch_table: Sequence[BranchId]) -> None:
        """Clear all model state and bind the run's static branch table."""
        raise NotImplementedError

    def simulate(self, outcomes: Iterable[int]) -> int:
        """Predict each outcome, then train on it, in order; returns how
        many were mispredicted.  This loop is the model's only copy of its
        predict-then-train step and the hottest path in a simulation."""
        raise NotImplementedError

    def observe(self, index: int, taken: bool) -> bool:
        """Simulate one branch execution; returns the direction that was
        predicted before the outcome was seen."""
        return taken != bool(self.simulate((index << 1 | taken,)))

    def on_run_start(self, branch_table: Sequence[BranchId]) -> None:
        if self.fed_by is not None:
            raise ValueError(
                f"{self.name} is advanced by {self.fed_by.name}'s pass; "
                "attach monitors_for(models), not the model itself"
            )
        self.reset(branch_table)
        self.executions = self.mispredicts = 0

    def replay(self, chunk: List[int]) -> None:
        outcomes = chunk[0::2]
        self.executions += len(outcomes)
        self.mispredicts += self.simulate(outcomes)

    def score(self, run: RunResult) -> PredictionReport:
        """This model's score against the run it observed."""
        return PredictionReport(
            program=run.program,
            predictor=self.name,
            instructions=run.instructions,
            branch_execs=self.executions,
            mispredicted=self.mispredicts,
            unavoidable_breaks=unavoidable_breaks(run),
            table_size=self.table_size,
            budget_bits=self.budget_bits(),
        )

    def budget_bits(self) -> Optional[int]:
        """Hardware state in bits, or ``None`` when not meaningfully
        finite (infinite tables, software predictors)."""
        return None

    def write_back(self) -> None:
        """Bring the state of the models this one feeds (see ``fed_by``)
        up to date.  A feeder may advance its own copy of that state and
        write it back only when asked; other models do nothing."""

    def snapshot(self) -> Tuple:
        """The complete mutable state, as nested plain tuples."""
        raise NotImplementedError


def monitors_for(models: Sequence[DynamicPredictor]) -> List[DynamicPredictor]:
    """The monitors to attach to a run so that each of ``models`` is
    advanced exactly once: every model's feeder in its place (see
    ``DynamicPredictor.fed_by``), each listed once, in first-use order.
    Score the models themselves after the run."""
    return list(dict.fromkeys(model.fed_by or model for model in models))
