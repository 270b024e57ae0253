"""Local constant folding (with constant-global load folding)."""
from __future__ import annotations

from typing import Dict, Optional

from repro.ir.cfg import Function
from repro.ir.instructions import Instr
from repro.ir.opcodes import UNOP_FUNCS, Opcode, fold_binop
from repro.opt.local_values import BlockValues


def fold_function(func: Function, const_globals: Dict[str, int]) -> bool:
    """Fold constant computations in place; returns whether anything changed."""
    changed = False
    for block in func.blocks:
        values = BlockValues(const_globals)
        for position, instr in enumerate(block.instrs):
            folded = _try_fold(instr, values)
            if folded is not None:
                block.instrs[position] = folded
                instr = folded
                changed = True
            values.update(instr)
    return changed


def _try_fold(instr: Instr, values: BlockValues) -> Optional[Instr]:
    op = instr.op
    if op == Opcode.BIN:
        left = values.const_of(instr.a)
        right = values.const_of(instr.b)
        if left is not None and right is not None:
            result = fold_binop(instr.subop, left, right)
            if result is None:
                return None  # preserve the run-time fault
            return Instr(Opcode.CONST, dst=instr.dst, imm=result)
        return None
    if op == Opcode.UN:
        operand = values.const_of(instr.a)
        if operand is not None:
            return Instr(
                Opcode.CONST, dst=instr.dst, imm=UNOP_FUNCS[instr.subop](operand)
            )
        return None
    if op == Opcode.SELECT:
        cond = values.const_of(instr.a)
        if cond is not None:
            chosen = instr.b if cond != 0 else instr.c
            return Instr(Opcode.MOV, dst=instr.dst, a=chosen)
        return None
    if op == Opcode.MOV:
        source = values.const_of(instr.a)
        if source is not None:
            return Instr(Opcode.CONST, dst=instr.dst, imm=source)
        return None
    if op == Opcode.LOAD:
        address = values.get(instr.a)
        if (
            address is not None
            and address.kind == "addr"
            and address.symbol in values.const_globals
        ):
            return Instr(
                Opcode.CONST,
                dst=instr.dst,
                imm=values.const_globals[address.symbol],
            )
        return None
    return None
