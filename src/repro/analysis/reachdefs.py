"""Definite assignment: a forward must-analysis (intersection) of which
registers are written on *every* path from entry.

The use-before-def lint is its consumer: the VM zero-fills registers, so a
maybe-uninitialized read is not a crash — it is a code-generator or
optimizer bug worth failing loudly on.
"""
from __future__ import annotations

from typing import FrozenSet, List, Tuple

from repro.analysis.dataflow import DataflowAnalysis, solve
from repro.ir.cfg import BasicBlock, Function
from repro.ir.instructions import Instr


class DefiniteAssignment(DataflowAnalysis[FrozenSet[int]]):
    """Forward intersection analysis; state = registers assigned on every
    path.  Bottom (``None``) positions are unreachable, so they do not
    weaken the intersection."""

    def boundary(self, func: Function) -> FrozenSet[int]:
        return frozenset(range(func.num_params))

    def meet(self, left: FrozenSet[int], right: FrozenSet[int]) -> FrozenSet[int]:
        return left & right

    def transfer(
        self, block: BasicBlock, state: FrozenSet[int]
    ) -> FrozenSet[int]:
        defs = {
            instr.dst for instr in block.instrs if instr.dst is not None
        }
        return state | frozenset(defs)


#: A maybe-uninitialized read: (label, position, instruction, register).
UninitializedUse = Tuple[str, int, Instr, int]


def maybe_uninitialized_uses(func: Function) -> List[UninitializedUse]:
    """Reads of registers not definitely assigned at that point.

    Restricted to blocks reachable from entry: layout-unreachable leftovers
    never execute, so their reads are not diagnosable bugs.
    """
    result = solve(func, DefiniteAssignment())
    findings: List[UninitializedUse] = []
    for block in func.blocks:
        state = result.before.get(block.label)
        if state is None:
            continue  # unreachable
        assigned = set(state)
        for position, instr in enumerate(block.instrs):
            for reg in instr.uses():
                if reg not in assigned:
                    findings.append((block.label, position, instr, reg))
            if instr.dst is not None:
                assigned.add(instr.dst)
    return findings
