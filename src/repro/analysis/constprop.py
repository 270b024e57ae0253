"""Conditional constant propagation over the CFG-form IR.

The dense (per-block-state) variant of Wegman–Zadeck sparse conditional
constant propagation: register -> constant maps flow forward, and branch
edges whose condition is a known constant are marked infeasible, so code
behind a constant-false guard is analyzed as unreachable.  This matters
here more than in most compilers: the paper's configuration deliberately
keeps constant-outcome branches in the program (global dead code
elimination off), which makes them exactly the branches a prover can
classify without any profile.

Constant-global loads are folded through :func:`repro.opt.globalconst
.constant_globals` *facts supplied by the caller* — this module depends
only on :mod:`repro.ir`.
"""
from __future__ import annotations

from typing import Dict, Mapping, Optional

from repro.analysis.dataflow import DataflowAnalysis, DataflowResult, solve
from repro.ir.cfg import BasicBlock, Function
from repro.ir.instructions import Instr
from repro.ir.opcodes import UNOP_FUNCS, Opcode, fold_binop

#: Abstract state: register -> known constant.  A register absent from the
#: map is not known to be constant.  (``None`` at the framework level means
#: the whole position is unreachable.)
ConstState = Dict[int, int]


def eval_instr(instr: Instr, state: Mapping[int, int]) -> Optional[int]:
    """The constant value ``instr`` computes under ``state``, if any.

    Faulting computations (division by zero, negative shifts) return
    ``None`` — the fault must stay a run-time event.
    """
    op = instr.op
    if op == Opcode.CONST:
        return instr.imm
    if op == Opcode.MOV:
        return state.get(instr.a) if instr.a is not None else None
    if op == Opcode.BIN:
        if instr.a is None or instr.b is None or instr.subop is None:
            return None
        left = state.get(instr.a)
        right = state.get(instr.b)
        if left is None or right is None:
            return None
        return fold_binop(instr.subop, left, right)
    if op == Opcode.UN:
        if instr.a is None or instr.subop is None:
            return None
        operand = state.get(instr.a)
        if operand is None:
            return None
        return UNOP_FUNCS[instr.subop](operand)
    if op == Opcode.SELECT:
        if instr.a is None:
            return None
        cond = state.get(instr.a)
        if cond is None:
            # Both arms constant and equal is still a constant.
            if instr.b is None or instr.c is None:
                return None
            left = state.get(instr.b)
            right = state.get(instr.c)
            if left is not None and left == right:
                return left
            return None
        chosen = instr.b if cond != 0 else instr.c
        return state.get(chosen) if chosen is not None else None
    return None


class ConstantPropagation(DataflowAnalysis[ConstState]):
    """Forward analysis with constant-condition edge pruning."""

    def __init__(
        self, const_globals: Optional[Mapping[str, int]] = None
    ) -> None:
        #: Never-written global scalars (symbol -> value); lets cross-block
        #: ``addr``/``load`` pairs of generality knobs fold to constants.
        self.const_globals = dict(const_globals or {})

    def boundary(self, func: Function) -> ConstState:
        return {}

    def meet(self, left: ConstState, right: ConstState) -> ConstState:
        if left == right:
            return dict(left)
        return {
            reg: value
            for reg, value in left.items()
            if right.get(reg) == value
        }

    def transfer(self, block: BasicBlock, state: ConstState) -> ConstState:
        values = dict(state)
        # Addresses of globals are tracked block-locally so that a
        # ``load`` through a constant-global ``addr`` folds.
        addresses: Dict[int, str] = {}
        for instr in block.instrs:
            dst = instr.dst
            if instr.op == Opcode.ADDR and dst is not None:
                addresses[dst] = instr.symbol or ""
                values.pop(dst, None)
                continue
            if (
                instr.op == Opcode.LOAD
                and dst is not None
                and instr.a in addresses
                and addresses[instr.a] in self.const_globals
            ):
                values[dst] = self.const_globals[addresses[instr.a]]
                continue
            if dst is not None:
                addresses.pop(dst, None)
                constant = eval_instr(instr, values)
                if constant is None:
                    values.pop(dst, None)
                else:
                    values[dst] = constant
        return values

    def edge_transfer(
        self, block: BasicBlock, target: str, state: ConstState
    ) -> Optional[ConstState]:
        term = block.terminator
        if term is None or term.op != Opcode.BR or term.a is None:
            return state
        cond = state.get(term.a)
        if cond is None:
            return state
        feasible = term.then_label if cond != 0 else term.else_label
        if target != feasible:
            return None
        # A branch with identical targets keeps the edge feasible for both
        # "directions" (there is only one edge).
        return state


def constants(
    func: Function, const_globals: Optional[Mapping[str, int]] = None
) -> DataflowResult[ConstState]:
    """Solve constant propagation for one function."""
    return solve(func, ConstantPropagation(const_globals))
