"""Procedure inlining.

"A compiler that is going to find large amounts of ILP must be able to
inline the most commonly called procedures.  An executed call that is not
inlined will cost two breaks in control — a deadly effect when a short
routine is called in an inner loop."  The Multiflow compiler inlined
automatically under a switch; this pass is our equivalent (off by default,
like all measurements in the paper, and enabled by the inlining ablation
experiment).

Only *leaf* callees (no calls of their own) up to a size limit are inlined,
which keeps the transformation simple and excludes recursion by
construction.  Inlined conditional branches receive fresh
:class:`BranchId`\\ s in the caller — each inlined copy is a distinct static
branch, exactly as a source-level inliner feeding IFPROBBER would produce
(the paper notes source control had to account for this).
"""
from __future__ import annotations

from typing import Dict, List, Optional

from repro.ir.cfg import BasicBlock, Function, Module
from repro.ir.instructions import BranchId, Instr
from repro.ir.opcodes import Opcode

#: Ceiling on callee size (instructions) for inlining.
MAX_CALLEE_INSTRS = 24

#: Ceiling on inlined call sites per caller, which bounds code growth.
MAX_INLINES_PER_CALLER = 200


def _is_leaf(func: Function) -> bool:
    return not any(
        instr.op in (Opcode.CALL, Opcode.ICALL) for instr in func.instructions()
    )


def _instr_count(func: Function) -> int:
    return sum(len(block.instrs) for block in func.blocks)


def _inline_candidates(module: Module) -> Dict[str, Function]:
    return {
        func.name: func
        for func in module.functions
        if func.name != "main"
        and _is_leaf(func)
        and _instr_count(func) <= MAX_CALLEE_INSTRS
    }


def _next_branch_index(func: Function) -> int:
    indices = [bid.index for bid in func.branch_ids()]
    return max(indices) + 1 if indices else 0


def _clone_instr(
    instr: Instr,
    reg_offset: int,
    label_map: Dict[str, str],
) -> Instr:
    def reg(value: Optional[int]) -> Optional[int]:
        return None if value is None else value + reg_offset

    return Instr(
        op=instr.op,
        dst=reg(instr.dst),
        a=reg(instr.a),
        b=reg(instr.b),
        c=reg(instr.c),
        imm=instr.imm,
        subop=instr.subop,
        symbol=instr.symbol,
        args=tuple(value + reg_offset for value in instr.args),
        then_label=label_map.get(instr.then_label, instr.then_label),
        else_label=label_map.get(instr.else_label, instr.else_label),
        branch_id=instr.branch_id,  # re-identified by the caller below
    )


def _inline_one_call(
    caller: Function,
    block_index: int,
    instr_index: int,
    callee: Function,
    clone_serial: int,
) -> None:
    """Replace one CALL instruction with the callee's cloned body."""
    block = caller.blocks[block_index]
    call = block.instrs[instr_index]
    suffix = f"inl.{callee.name}.{clone_serial}"
    reg_offset = caller.num_regs
    caller.num_regs += callee.num_regs

    label_map = {
        src.label: f"{src.label}.{suffix}" for src in callee.blocks
    }
    cont_label = f"cont.{suffix}"
    next_branch = _next_branch_index(caller)

    cloned_blocks: List[BasicBlock] = []
    for src in callee.blocks:
        cloned = BasicBlock(label_map[src.label])
        for instr in src.instrs:
            if instr.op == Opcode.RET:
                if call.dst is not None:
                    if instr.a is not None:
                        cloned.instrs.append(
                            Instr(Opcode.MOV, dst=call.dst, a=instr.a + reg_offset)
                        )
                    else:
                        cloned.instrs.append(
                            Instr(Opcode.CONST, dst=call.dst, imm=0)
                        )
                cloned.instrs.append(Instr(Opcode.JMP, then_label=cont_label))
                continue
            copy = _clone_instr(instr, reg_offset, label_map)
            if copy.op == Opcode.BR:
                copy.branch_id = BranchId(caller.name, next_branch)
                next_branch += 1
            cloned.instrs.append(copy)
        cloned_blocks.append(cloned)

    # Split the call block: prologue (argument moves) jumps into the clone;
    # the continuation inherits the remainder.
    head = block.instrs[:instr_index]
    for param, arg in enumerate(call.args):
        head.append(Instr(Opcode.MOV, dst=reg_offset + param, a=arg))
    head.append(Instr(Opcode.JMP, then_label=label_map[callee.blocks[0].label]))
    cont = BasicBlock(cont_label, block.instrs[instr_index + 1 :])
    block.instrs = head

    insert_at = block_index + 1
    caller.blocks[insert_at:insert_at] = cloned_blocks + [cont]


def inline_function(caller: Function, candidates: Dict[str, Function]) -> bool:
    """Inline eligible calls in one function; returns whether any were.

    At most ``MAX_INLINES_PER_CALLER`` call sites are inlined.
    """
    changed = False
    serial = 0
    for _ in range(MAX_INLINES_PER_CALLER):
        did_inline = False
        for block_index, block in enumerate(caller.blocks):
            for instr_index, instr in enumerate(block.instrs):
                if instr.op != Opcode.CALL:
                    continue
                callee = candidates.get(instr.symbol)
                if callee is None or callee.name == caller.name:
                    continue
                _inline_one_call(
                    caller, block_index, instr_index, callee, serial
                )
                serial += 1
                did_inline = True
                changed = True
                break
            if did_inline:
                break
        if not did_inline:
            break
        # Candidates are leaves, so the clone introduces no further calls;
        # restart the scan to find the next call site.
    return changed


def inline_module(module: Module) -> bool:
    """Inline small leaf functions throughout the module, in place."""
    candidates = _inline_candidates(module)
    if not candidates:
        return False
    changed = False
    for func in module.functions:
        changed |= inline_function(func, candidates)
    return changed
