"""Local copy propagation: forward ``MOV`` sources to later uses in a block."""
from __future__ import annotations

from typing import Dict

from repro.ir.cfg import Function
from repro.ir.opcodes import Opcode


def propagate_function(func: Function) -> bool:
    """Rewrite uses through in-block copies; returns whether anything changed."""
    changed = False
    for block in func.blocks:
        copies: Dict[int, int] = {}  # reg -> equivalent earlier reg
        for instr in block.instrs:
            if copies:
                applicable = {
                    reg: copies[reg] for reg in instr.uses() if reg in copies
                }
                if applicable:
                    instr.replace_uses(applicable)
                    changed = True
            dst = instr.dst
            if dst is not None:
                # A new definition invalidates copies into or out of dst.
                copies = {
                    reg: src
                    for reg, src in copies.items()
                    if reg != dst and src != dst
                }
                if instr.op == Opcode.MOV and instr.a != dst:
                    copies[dst] = copies.get(instr.a, instr.a)
    return changed
