"""CFG-form IR instructions.

Instructions reference virtual registers by integer index.  Block references
(branch and jump targets) are block *labels* (strings), resolved by the
containing :class:`~repro.ir.cfg.Function`.

Conditional branches carry a :class:`BranchId` — the stable, source-order
identity that the profiler keys its counters by.  Branch identities are
assigned by the language front end *before* optimization, mirroring the
paper's IFPROBBER, whose results "are independent of compiler optimizations,
and reflect the probabilities associated with the static source branches".
"""
from __future__ import annotations

import dataclasses
from typing import List, Mapping, NamedTuple, Optional, Tuple

from repro.ir.opcodes import BinOp, Opcode, UnOp


class BranchId(NamedTuple):
    """Stable identity of a source-level conditional branch.

    ``function`` is the name of the containing function and ``index`` the
    zero-based position of the branch in the function's source order (the
    order the code generator encountered it).  The identity survives any
    optimization that does not delete the branch.

    It is a ``(function, index)`` tuple, so hashing, equality and ordering
    run in C: every profile, predictor and profile database is a dict keyed
    by it.  An id equals, hashes and sorts like its plain tuple.
    """

    function: str
    index: int

    def __str__(self) -> str:
        return f"{self.function}#{self.index}"


@dataclasses.dataclass
class Instr:
    """A single CFG-form instruction.

    Operand meaning by opcode (``dst``/``a``/``b``/``c`` are register
    numbers unless stated otherwise):

    ======== ==========================================================
    CONST    dst, imm
    MOV      dst, a
    ADDR     dst, symbol
    FUNCADDR dst, symbol (function name)
    BIN      dst, a, b, subop (:class:`BinOp`)
    UN       dst, a, subop (:class:`UnOp`)
    SELECT   dst, a (cond), b (if true), c (if false)
    LOAD     dst, a (address)
    STORE    a (address), b (value)
    GETC     dst
    PUTC     a
    CALL     dst (or None), symbol, args
    ICALL    dst (or None), a (callable), args
    BR       a (cond), then_label, else_label, branch_id
    JMP      then_label
    RET      a (or None for ``return`` without value)
    HALT     --
    ======== ==========================================================
    """

    op: Opcode
    dst: Optional[int] = None
    a: Optional[int] = None
    b: Optional[int] = None
    c: Optional[int] = None
    imm: Optional[int] = None
    subop: Optional[int] = None
    symbol: Optional[str] = None
    args: Tuple[int, ...] = ()
    then_label: Optional[str] = None
    else_label: Optional[str] = None
    branch_id: Optional[BranchId] = None

    def is_terminator(self) -> bool:
        """Whether this instruction ends a basic block."""
        return self.op in (Opcode.BR, Opcode.JMP, Opcode.RET, Opcode.HALT)

    def has_side_effects(self) -> bool:
        """Whether the instruction does more than define ``dst``.

        Side-effecting instructions may never be removed by dead-instruction
        elimination even when their result is unused.
        """
        return self.op in (
            Opcode.STORE,
            Opcode.GETC,
            Opcode.PUTC,
            Opcode.CALL,
            Opcode.ICALL,
            Opcode.BR,
            Opcode.JMP,
            Opcode.RET,
            Opcode.HALT,
        )

    def uses(self) -> List[int]:
        """Registers read by this instruction."""
        used = [r for r in (self.a, self.b, self.c) if r is not None]
        used.extend(self.args)
        return used

    def replace_uses(self, mapping: Mapping[int, int]) -> None:
        """Rewrite used registers through ``mapping`` (reg -> reg), in place."""
        if self.a is not None:
            self.a = mapping.get(self.a, self.a)
        if self.b is not None:
            self.b = mapping.get(self.b, self.b)
        if self.c is not None:
            self.c = mapping.get(self.c, self.c)
        if self.args:
            self.args = tuple(mapping.get(r, r) for r in self.args)

    def successors(self) -> List[str]:
        """Labels of the blocks this terminator may transfer control to."""
        if self.op == Opcode.BR:
            return [self.then_label, self.else_label]
        if self.op == Opcode.JMP:
            return [self.then_label]
        return []

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        op = self.op.name.lower()
        if self.op == Opcode.CONST:
            return f"r{self.dst} = const {self.imm}"
        if self.op == Opcode.MOV:
            return f"r{self.dst} = r{self.a}"
        if self.op == Opcode.ADDR:
            return f"r{self.dst} = addr {self.symbol}"
        if self.op == Opcode.FUNCADDR:
            return f"r{self.dst} = funcaddr {self.symbol}"
        if self.op == Opcode.BIN:
            return f"r{self.dst} = r{self.a} {BinOp(self.subop).name.lower()} r{self.b}"
        if self.op == Opcode.UN:
            return f"r{self.dst} = {UnOp(self.subop).name.lower()} r{self.a}"
        if self.op == Opcode.SELECT:
            return f"r{self.dst} = select r{self.a} ? r{self.b} : r{self.c}"
        if self.op == Opcode.LOAD:
            return f"r{self.dst} = load [r{self.a}]"
        if self.op == Opcode.STORE:
            return f"store [r{self.a}] = r{self.b}"
        if self.op == Opcode.GETC:
            return f"r{self.dst} = getc"
        if self.op == Opcode.PUTC:
            return f"putc r{self.a}"
        if self.op in (Opcode.CALL, Opcode.ICALL):
            target = self.symbol if self.op == Opcode.CALL else f"*r{self.a}"
            arglist = ", ".join(f"r{r}" for r in self.args)
            prefix = f"r{self.dst} = " if self.dst is not None else ""
            return f"{prefix}{op} {target}({arglist})"
        if self.op == Opcode.BR:
            return (
                f"br r{self.a} ? {self.then_label} : {self.else_label}"
                f"  ; {self.branch_id}"
            )
        if self.op == Opcode.JMP:
            return f"jmp {self.then_label}"
        if self.op == Opcode.RET:
            return f"ret r{self.a}" if self.a is not None else "ret"
        if self.op == Opcode.HALT:
            return "halt"
        return op
