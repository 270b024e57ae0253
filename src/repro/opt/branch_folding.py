"""Branch folding: turn constant-outcome conditional branches into jumps.

This pass is part of the *dead code elimination* configuration, which the
paper deliberately turned off for its measurements ("dead code elimination
removes conditional branches with constant outcome").  It is enabled when
measuring Table 1's dead-code fractions.

:func:`constant_condition` is the repository's one rule for "this
conditional branch always goes one way": the pass folds what it decides,
and the static prover (:mod:`repro.analysis.prover`) reports the same
branches, unfolded, under the paper's configuration.
"""
from __future__ import annotations

from typing import Mapping, Optional

from repro.ir.cfg import BasicBlock, Function
from repro.ir.instructions import Instr
from repro.ir.opcodes import Opcode
from repro.opt.local_values import BlockValues


def constant_condition(
    block: BasicBlock, const_globals: Optional[Mapping[str, int]] = None
) -> Optional[int]:
    """The value a ``BR`` terminator's condition has on every execution of
    ``block``, judged from the block's own instructions and the
    never-written global scalars; ``None`` when it is not constant."""
    values = BlockValues(const_globals)
    for instr in block.instrs[:-1]:
        values.update(instr)
    return values.const_of(block.instrs[-1].a)


def fold_branches(func: Function, const_globals: Mapping[str, int]) -> bool:
    """Replace constant (or degenerate) conditional branches with jumps."""
    changed = False
    for block in func.blocks:
        term = block.terminator
        if term is None or term.op != Opcode.BR:
            continue
        if term.then_label == term.else_label:
            block.instrs[-1] = Instr(Opcode.JMP, then_label=term.then_label)
            changed = True
            continue
        cond = constant_condition(block, const_globals)
        if cond is not None:
            target = term.then_label if cond != 0 else term.else_label
            block.instrs[-1] = Instr(Opcode.JMP, then_label=target)
            changed = True
    return changed
