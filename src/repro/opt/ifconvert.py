"""If-conversion: turn small hammocks into straight-line selects.

The paper *suppressed* this in its compiler ("suppressed some more advanced
optimizations that would have changed the flow of control, such as loop
unrolling and if-conversion") because it removes the very branches being
studied.  We implement it as an off-by-default pass so the ablation
experiment can measure exactly what it would have done: both arms execute
unconditionally into fresh registers and a ``select`` picks each result, so
the conditional branch disappears.

Only hammocks/diamonds whose arms are short, branch-free and trap-free
(no loads, stores, calls, division) are converted.
"""
from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.ir.analysis import predecessor_map
from repro.ir.cfg import BasicBlock, Function
from repro.ir.instructions import Instr
from repro.ir.opcodes import BinOp, Opcode

#: Maximum instructions per converted arm (excluding the terminator).
MAX_ARM_INSTRS = 8

_PURE_OPS = (
    Opcode.CONST,
    Opcode.MOV,
    Opcode.ADDR,
    Opcode.FUNCADDR,
    Opcode.BIN,
    Opcode.UN,
    Opcode.SELECT,
)


def _convertible_body(block: BasicBlock) -> bool:
    body = block.body()
    if len(body) > MAX_ARM_INSTRS:
        return False
    term = block.terminator
    if term is None or term.op != Opcode.JMP:
        return False
    for instr in body:
        if instr.op not in _PURE_OPS:
            return False
        if instr.op == Opcode.BIN and instr.subop in (
            int(BinOp.DIV), int(BinOp.MOD),
        ):
            return False
    return True


def _rename_body(
    body: List[Instr], func: Function
) -> Tuple[List[Instr], Dict[int, int]]:
    """Clone a body writing into fresh registers.

    Returns the cloned instructions and the final mapping from each
    originally-defined register to the fresh register holding its value at
    the end of the arm.  Uses of earlier in-arm definitions are rewritten
    through the evolving map, so reads of pre-branch values stay intact.
    """
    mapping: Dict[int, int] = {}
    cloned: List[Instr] = []
    for instr in body:
        copy = Instr(
            op=instr.op,
            dst=instr.dst,
            a=instr.a,
            b=instr.b,
            c=instr.c,
            imm=instr.imm,
            subop=instr.subop,
            symbol=instr.symbol,
            args=instr.args,
        )
        if mapping:
            copy.replace_uses(mapping)
        fresh = func.new_reg()
        mapping[copy.dst] = fresh
        copy.dst = fresh
        cloned.append(copy)
    return cloned, mapping


def if_convert_function(func: Function) -> bool:
    """Convert eligible hammocks in one function; returns whether any were."""
    changed = False
    while _convert_one(func):
        changed = True
    return changed


def _convert_one(func: Function) -> bool:
    block_map = func.block_map()
    preds = predecessor_map(func)
    for block in func.blocks:
        term = block.terminator
        if term is None or term.op != Opcode.BR:
            continue
        then_label, else_label = term.then_label, term.else_label
        if then_label == else_label:
            continue
        then_block = block_map[then_label]
        if not _is_arm(then_block, block.label, preds):
            continue
        join_label = then_block.terminator.then_label
        else_block: Optional[BasicBlock] = None
        if else_label == join_label:
            pass  # one-sided hammock: empty else arm
        else:
            candidate = block_map[else_label]
            if not _is_arm(candidate, block.label, preds):
                continue
            if candidate.terminator.then_label != join_label:
                continue
            else_block = candidate
        if join_label in (then_label, else_label, block.label):
            continue

        _apply_conversion(func, block, term, then_block, else_block, join_label)
        return True
    return False


def _is_arm(
    block: BasicBlock, only_pred: str, preds: Dict[str, List[str]]
) -> bool:
    return preds.get(block.label) == [only_pred] and _convertible_body(block)


def _apply_conversion(
    func: Function,
    block: BasicBlock,
    term: Instr,
    then_block: BasicBlock,
    else_block: Optional[BasicBlock],
    join_label: str,
) -> None:
    cond = term.a
    then_code, then_map = _rename_body(then_block.body(), func)
    else_code, else_map = (
        _rename_body(else_block.body(), func) if else_block else ([], {})
    )

    new_tail: List[Instr] = then_code + else_code
    for reg in sorted(set(then_map) | set(else_map)):
        new_tail.append(
            Instr(
                Opcode.SELECT,
                dst=reg,
                a=cond,
                b=then_map.get(reg, reg),
                c=else_map.get(reg, reg),
            )
        )
    new_tail.append(Instr(Opcode.JMP, then_label=join_label))

    block.instrs = block.instrs[:-1] + new_tail
    dead_labels = {then_block.label}
    if else_block is not None:
        dead_labels.add(else_block.label)
    func.blocks = [b for b in func.blocks if b.label not in dead_labels]
