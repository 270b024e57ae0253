"""Local common-subexpression elimination over pure register computations.

Memory loads are deliberately not CSE'd (that would need alias reasoning
across stores); constants, addresses, ALU operations and selects are.
"""
from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.ir.cfg import Function
from repro.ir.instructions import Instr
from repro.ir.opcodes import COMMUTATIVE_BINOPS, BinOp, Opcode


def _expr_key(instr: Instr) -> Optional[Tuple]:
    """A hashable value key for pure computations, or None."""
    op = instr.op
    if op == Opcode.CONST:
        return ("const", instr.imm)
    if op == Opcode.ADDR:
        return ("addr", instr.symbol)
    if op == Opcode.FUNCADDR:
        return ("funcaddr", instr.symbol)
    if op == Opcode.BIN:
        a, b = instr.a, instr.b
        if BinOp(instr.subop) in COMMUTATIVE_BINOPS and b < a:
            a, b = b, a
        return ("bin", instr.subop, a, b)
    if op == Opcode.UN:
        return ("un", instr.subop, instr.a)
    if op == Opcode.SELECT:
        return ("select", instr.a, instr.b, instr.c)
    return None


def _key_operands(key: Tuple) -> Tuple[int, ...]:
    """Registers a key depends on."""
    if key[0] in ("const", "addr", "funcaddr"):
        return ()
    if key[0] in ("bin", "un"):
        return tuple(k for k in key[2:])
    return tuple(k for k in key[1:])


def cse_function(func: Function) -> bool:
    """Eliminate duplicated pure computations within each block."""
    changed = False
    for block in func.blocks:
        available: Dict[Tuple, int] = {}
        # Reverse index: register -> the keys it holds or is an operand of.
        # Entries may be stale; a kill re-checks against ``available``.
        mentions: Dict[int, List[Tuple]] = {}
        for position, instr in enumerate(block.instrs):
            key = _expr_key(instr)
            if key is not None:
                existing = available.get(key)
                if existing is not None and existing != instr.dst:
                    replacement = Instr(Opcode.MOV, dst=instr.dst, a=existing)
                    block.instrs[position] = replacement
                    instr = replacement
                    changed = True
            dst = instr.dst
            if dst is None:
                continue
            # Kill expressions that used dst or whose result lived in dst.
            for stale in mentions.pop(dst, ()):
                holder = available.get(stale)
                if holder is not None and (
                    holder == dst or dst in _key_operands(stale)
                ):
                    del available[stale]
            if key is None or instr.op == Opcode.MOV:
                continue
            operands = _key_operands(key)
            # ``r0 = r0 add r1`` overwrote an operand: the key no longer
            # names the value now in r0, so it must not be recorded.
            if dst in operands:
                continue
            available[key] = dst
            for reg in (dst,) + operands:
                mentions.setdefault(reg, []).append(key)
    return changed
