"""The generic worklist dataflow solver.

Every analysis in :mod:`repro.analysis` is an instance of one scheme: a
lattice of abstract states, a per-block transfer function, a meet operator,
and a direction.  The solver computes the maximal-fixpoint (MFP) solution
with a worklist seeded in quasi-topological order.

Conventions
-----------

States are named by *program position*, not by dataflow direction:
``before[label]`` is the state at the block's entry in program order and
``after[label]`` the state at its exit.  A forward analysis computes
``after = transfer(block, before)``; a backward analysis computes
``before = transfer(block, after)``.

The bottom element is ``None`` and means "no execution reaches this
position": a forward analysis gives it to every block that no path from
the entry reaches.  ``meet(None, x) == x`` is enforced by the solver, so
analyses only ever see two non-``None`` states.

Termination rests on the lattices: every analysis here has finite height
(a register set is bounded by the function's registers), and its transfer
and meet are monotone, so each block's state changes a bounded number of
times.  The solver has no widening, so it accepts only finite-height
analyses.
"""
from __future__ import annotations

import dataclasses
from typing import Dict, Generic, List, Optional, Set, TypeVar

from repro.ir.analysis import (
    exit_labels,
    predecessor_map,
    reachable_labels,
    successor_map,
)
from repro.ir.cfg import BasicBlock, Function

S = TypeVar("S")

FORWARD = "forward"
BACKWARD = "backward"


class DataflowAnalysis(Generic[S]):
    """One dataflow problem: direction, lattice operations, transfer."""

    #: :data:`FORWARD` or :data:`BACKWARD`.
    direction: str = FORWARD

    #: When True, a position no execution flows into is treated as holding
    #: the boundary state rather than bottom.  Liveness wants this: a block
    #: with no path to an exit still circulates its own uses (deleting
    #: instructions inside an infinite loop would change the observable
    #: instruction counts this whole repository exists to measure).
    bottom_is_boundary: bool = False

    def boundary(self, func: Function) -> S:
        """The state at the CFG boundary: function entry for a forward
        analysis, every exit block for a backward one."""
        raise NotImplementedError

    def meet(self, left: S, right: S) -> S:
        """Combine two states flowing into the same position.  Never called
        with ``None``; the solver short-circuits the bottom element."""
        raise NotImplementedError

    def transfer(self, block: BasicBlock, state: S) -> S:
        """The state after executing ``block`` (forward: given its entry
        state; backward: given its exit state, returning its entry state)."""
        raise NotImplementedError


@dataclasses.dataclass
class DataflowResult(Generic[S]):
    """The MFP solution: program-order entry/exit state per block label.

    ``None`` means no execution reaches the position: a forward analysis
    gives it to blocks no path from the entry reaches.
    """

    before: Dict[str, Optional[S]]
    after: Dict[str, Optional[S]]


def solve(func: Function, analysis: DataflowAnalysis[S]) -> DataflowResult[S]:
    """Run the worklist algorithm to the maximal fixpoint."""
    if not func.blocks:
        return DataflowResult(before={}, after={})
    if analysis.direction == FORWARD:
        return _solve_forward(func, analysis)
    if analysis.direction == BACKWARD:
        return _solve_backward(func, analysis)
    raise ValueError(f"bad dataflow direction {analysis.direction!r}")


def _solve_forward(
    func: Function, analysis: DataflowAnalysis[S]
) -> DataflowResult[S]:
    block_map = func.block_map()
    succs = successor_map(func)
    preds = predecessor_map(func)
    order = reachable_labels(func)
    position = {label: index for index, label in enumerate(order)}
    entry = order[0]

    before: Dict[str, Optional[S]] = {b.label: None for b in func.blocks}
    after: Dict[str, Optional[S]] = {b.label: None for b in func.blocks}
    seen: Set[str] = set()

    pending: Set[str] = set(order)
    worklist: List[str] = list(reversed(order))  # pop() yields RPO
    while worklist:
        label = worklist.pop()
        pending.discard(label)
        block = block_map[label]
        first = label not in seen
        seen.add(label)

        incoming: Optional[S] = analysis.boundary(func) if label == entry else None
        for pred in preds[label]:
            pred_after = after[pred]
            if pred_after is None:
                continue
            incoming = (
                pred_after
                if incoming is None
                else analysis.meet(incoming, pred_after)
            )
        if incoming is None and analysis.bottom_is_boundary:
            incoming = analysis.boundary(func)

        if incoming == before[label] and not first:
            continue
        before[label] = incoming
        new_after = (
            None if incoming is None else analysis.transfer(block, incoming)
        )
        if new_after != after[label] or first:
            after[label] = new_after
            for succ in succs[label]:
                if succ in position and succ not in pending:
                    pending.add(succ)
                    worklist.append(succ)
    return DataflowResult(before=before, after=after)


def _solve_backward(
    func: Function, analysis: DataflowAnalysis[S]
) -> DataflowResult[S]:
    block_map = func.block_map()
    succs = successor_map(func)
    preds = predecessor_map(func)
    order = reachable_labels(func)
    exits = set(exit_labels(func))

    before: Dict[str, Optional[S]] = {b.label: None for b in func.blocks}
    after: Dict[str, Optional[S]] = {b.label: None for b in func.blocks}
    seen: Set[str] = set()

    # Layout-unreachable blocks are solved too (queued first, popped last):
    # under the paper's no-DCE configuration they stay in the module, and
    # consumers like dead-store detection must see their internal liveness.
    reachable = set(order)
    leftovers = [
        block.label for block in func.blocks if block.label not in reachable
    ]
    pending: Set[str] = reachable | set(leftovers)
    worklist: List[str] = leftovers + list(order)  # pop() yields postorder first
    while worklist:
        label = worklist.pop()
        pending.discard(label)
        block = block_map[label]
        first = label not in seen
        seen.add(label)

        outgoing: Optional[S] = analysis.boundary(func) if label in exits else None
        for succ in succs[label]:
            succ_before = before.get(succ)
            if succ_before is None:
                continue
            outgoing = (
                succ_before
                if outgoing is None
                else analysis.meet(outgoing, succ_before)
            )
        if outgoing is None and analysis.bottom_is_boundary:
            outgoing = analysis.boundary(func)

        if outgoing == after[label] and not first:
            continue
        after[label] = outgoing
        new_before = (
            None if outgoing is None else analysis.transfer(block, outgoing)
        )
        if new_before != before[label] or first:
            before[label] = new_before
            for pred in preds[label]:
                if pred not in pending:
                    pending.add(pred)
                    worklist.append(pred)
    return DataflowResult(before=before, after=after)
