"""Dead-instruction elimination via global (per-function) liveness.

Pure instructions whose destination register is not live afterwards are
removed.  This, with branch folding and unreachable-block removal, makes up
the dead code elimination the paper turned off and measured in Table 1.
The liveness itself comes from the shared dataflow framework
(:mod:`repro.analysis.liveness`).
"""
from __future__ import annotations

from repro.analysis.liveness import dead_instructions
from repro.ir.cfg import Function


def eliminate_dead_instructions(func: Function) -> bool:
    """Remove pure instructions whose results are never used."""
    dead = dead_instructions(func)
    for block in func.blocks:
        if block.label in dead:
            drop = set(dead[block.label])
            block.instrs = [
                instr
                for position, instr in enumerate(block.instrs)
                if position not in drop
            ]
    return bool(dead)
