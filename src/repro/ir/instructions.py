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
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Tuple

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
        return self.op in _TERMINATORS

    def has_side_effects(self) -> bool:
        """Whether the instruction does more than define ``dst``.

        Side-effecting instructions may never be removed by dead-instruction
        elimination even when their result is unused.
        """
        return self.op in _SIDE_EFFECTS

    def uses(self) -> List[int]:
        """Registers read by this instruction."""
        used: List[int] = []
        if self.a is not None:
            used.append(self.a)
        if self.b is not None:
            used.append(self.b)
        if self.c is not None:
            used.append(self.c)
        if self.args:
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

    def __str__(self) -> str:
        return _FORMATS[self.op](self)


#: Opcodes that end a basic block.
_TERMINATORS = frozenset({Opcode.BR, Opcode.JMP, Opcode.RET, Opcode.HALT})

#: Opcodes that do more than define ``dst``.
_SIDE_EFFECTS = _TERMINATORS | {
    Opcode.STORE,
    Opcode.GETC,
    Opcode.PUTC,
    Opcode.CALL,
    Opcode.ICALL,
}

#: Each ``subop``'s name, for ``BIN`` and for ``UN``.
_BINOP_NAMES: Dict[Optional[int], str] = {op: op.name.lower() for op in BinOp}
_UNOP_NAMES: Dict[Optional[int], str] = {op: op.name.lower() for op in UnOp}


def _call_text(instr: Instr) -> str:
    if instr.op == Opcode.CALL:
        target = f"call {instr.symbol}"
    else:
        target = f"icall *r{instr.a}"
    arglist = ", ".join(f"r{r}" for r in instr.args)
    prefix = f"r{instr.dst} = " if instr.dst is not None else ""
    return f"{prefix}{target}({arglist})"


#: Each opcode's text.  The optimizer compares functions by their printed
#: text (see ``repro.opt.pipeline``), so this is on its hot path.
_FORMATS: Dict[int, Callable[[Instr], str]] = {
    Opcode.CONST: lambda i: f"r{i.dst} = const {i.imm}",
    Opcode.MOV: lambda i: f"r{i.dst} = r{i.a}",
    Opcode.ADDR: lambda i: f"r{i.dst} = addr {i.symbol}",
    Opcode.FUNCADDR: lambda i: f"r{i.dst} = funcaddr {i.symbol}",
    Opcode.BIN: lambda i: f"r{i.dst} = r{i.a} {_BINOP_NAMES[i.subop]} r{i.b}",
    Opcode.UN: lambda i: f"r{i.dst} = {_UNOP_NAMES[i.subop]} r{i.a}",
    Opcode.SELECT: lambda i: f"r{i.dst} = select r{i.a} ? r{i.b} : r{i.c}",
    Opcode.LOAD: lambda i: f"r{i.dst} = load [r{i.a}]",
    Opcode.STORE: lambda i: f"store [r{i.a}] = r{i.b}",
    Opcode.GETC: lambda i: f"r{i.dst} = getc",
    Opcode.PUTC: lambda i: f"putc r{i.a}",
    Opcode.CALL: _call_text,
    Opcode.ICALL: _call_text,
    Opcode.BR: lambda i: (
        f"br r{i.a} ? {i.then_label} : {i.else_label}  ; {i.branch_id}"
    ),
    Opcode.JMP: lambda i: f"jmp {i.then_label}",
    Opcode.RET: lambda i: f"ret r{i.a}" if i.a is not None else "ret",
    Opcode.HALT: lambda i: "halt",
}
