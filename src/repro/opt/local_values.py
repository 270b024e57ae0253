"""Per-block value tracking shared by the local optimization passes.

Tracks, for each virtual register, what is known about its value from its
most recent definition *within the current block*: a constant, the address of
a global symbol, or an address derived from a global symbol's base (array
element addresses).  This is sound regardless of cross-block liveness because
facts are only used at program points after the in-block definition.
"""
from __future__ import annotations

import dataclasses
from typing import Dict, Mapping, Optional

from repro.ir.instructions import Instr
from repro.ir.opcodes import BinOp, Opcode


@dataclasses.dataclass(frozen=True)
class Value:
    """What is known about a register: ``kind`` is one of
    ``"const"`` (``number`` holds the value), ``"addr"`` (``symbol`` is the
    global whose base address this is), or ``"elem"`` (an address somewhere
    inside global ``symbol``)."""

    kind: str
    number: int = 0
    symbol: str = ""


class BlockValues:
    """Forward value tracker for one basic block."""

    def __init__(self, const_globals: Optional[Mapping[str, int]] = None):
        self.values: Dict[int, Value] = {}
        self.const_globals = const_globals or {}

    def get(self, reg: Optional[int]) -> Optional[Value]:
        if reg is None:
            return None
        return self.values.get(reg)

    def const_of(self, reg: Optional[int]) -> Optional[int]:
        value = self.get(reg)
        if value is not None and value.kind == "const":
            return value.number
        return None

    def kill(self, reg: Optional[int]) -> None:
        if reg is not None:
            self.values.pop(reg, None)

    def update(self, instr: Instr) -> None:
        """Record the effect of ``instr`` on register knowledge.

        Call this *after* inspecting the instruction's uses.
        """
        op = instr.op
        if op == Opcode.CONST:
            self.values[instr.dst] = Value("const", number=instr.imm)
        elif op == Opcode.ADDR:
            self.values[instr.dst] = Value("addr", symbol=instr.symbol)
        elif op == Opcode.MOV:
            source = self.get(instr.a)
            if source is not None:
                self.values[instr.dst] = source
            else:
                self.kill(instr.dst)
        elif op == Opcode.BIN and instr.subop == int(BinOp.ADD):
            left = self.get(instr.a)
            right = self.get(instr.b)
            symbol = None
            if left is not None and left.kind in ("addr", "elem"):
                symbol = left.symbol
            elif right is not None and right.kind in ("addr", "elem"):
                symbol = right.symbol
            if symbol is not None:
                self.values[instr.dst] = Value("elem", symbol=symbol)
            else:
                self.kill(instr.dst)
        elif op == Opcode.LOAD:
            address = self.get(instr.a)
            if (
                address is not None
                and address.kind == "addr"
                and address.symbol in self.const_globals
            ):
                self.values[instr.dst] = Value(
                    "const", number=self.const_globals[address.symbol]
                )
            else:
                self.kill(instr.dst)
        elif instr.dst is not None:
            self.kill(instr.dst)
