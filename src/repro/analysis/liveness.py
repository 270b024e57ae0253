"""Register liveness, as a backward may-analysis on the framework.

The optimizer's dead-instruction pass and the dead-store lint share it
through :func:`dead_instructions`: the pass deletes what it returns, the
lint reports it.
"""
from __future__ import annotations

from typing import Dict, FrozenSet, List, Set, Tuple

from repro.analysis.dataflow import BACKWARD, DataflowAnalysis, solve
from repro.ir.cfg import BasicBlock, Function


def block_use_def(block: BasicBlock) -> Tuple[Set[int], Set[int]]:
    """(use, def): registers read before any in-block write / registers
    written anywhere in the block."""
    uses: Set[int] = set()
    defs: Set[int] = set()
    for instr in block.instrs:
        for reg in instr.uses():
            if reg not in defs:
                uses.add(reg)
        if instr.dst is not None:
            defs.add(instr.dst)
    return uses, defs


class LivenessAnalysis(DataflowAnalysis[FrozenSet[int]]):
    """Backward union analysis; state = frozenset of live register numbers."""

    direction = BACKWARD
    bottom_is_boundary = True

    def boundary(self, func: Function) -> FrozenSet[int]:
        return frozenset()

    def meet(
        self, left: FrozenSet[int], right: FrozenSet[int]
    ) -> FrozenSet[int]:
        return left | right

    def transfer(
        self, block: BasicBlock, state: FrozenSet[int]
    ) -> FrozenSet[int]:
        uses, defs = block_use_def(block)
        return frozenset(uses | (set(state) - defs))


def live_sets(func: Function) -> Tuple[Dict[str, Set[int]], Dict[str, Set[int]]]:
    """(live_in, live_out) register sets per block label.

    Blocks the analysis never reaches (no path to an exit, or unreachable
    layout leftovers) get empty sets — nothing observable is live there.
    """
    result = solve(func, LivenessAnalysis())
    live_in: Dict[str, Set[int]] = {}
    live_out: Dict[str, Set[int]] = {}
    for block in func.blocks:
        before = result.before.get(block.label)
        after = result.after.get(block.label)
        live_in[block.label] = set(before) if before is not None else set()
        live_out[block.label] = set(after) if after is not None else set()
    return live_in, live_out


def dead_instructions(func: Function) -> Dict[str, List[int]]:
    """Block label -> ascending positions of side-effect-free instructions
    whose result is not live afterwards; blocks without any are left out.

    One backward walk per block from its live-out set: a dead instruction
    neither kills its destination nor makes its operands live.
    """
    _, live_out_sets = live_sets(func)
    dead: Dict[str, List[int]] = {}
    for block in func.blocks:
        live = set(live_out_sets[block.label])
        positions: List[int] = []
        for position in range(len(block.instrs) - 1, -1, -1):
            instr = block.instrs[position]
            dst = instr.dst
            if (
                dst is not None
                and dst not in live
                and not instr.has_side_effects()
            ):
                positions.append(position)
                continue
            if dst is not None:
                live.discard(dst)
            live.update(instr.uses())
        if positions:
            dead[block.label] = positions[::-1]
    return dead
