"""Basic blocks, functions and modules (the CFG-form program container)."""
from __future__ import annotations

import dataclasses
from typing import Dict, Iterator, List, Optional, Tuple

from repro.ir.instructions import BranchId, Instr
from repro.ir.opcodes import Opcode


class IRError(Exception):
    """Raised for malformed IR (validation failures, bad references)."""


@dataclasses.dataclass
class BasicBlock:
    """A labelled sequence of instructions ending in a single terminator."""

    label: str
    instrs: List[Instr] = dataclasses.field(default_factory=list)

    @property
    def terminator(self) -> Optional[Instr]:
        """The final instruction, if it is a terminator; else ``None``."""
        if self.instrs and self.instrs[-1].is_terminator():
            return self.instrs[-1]
        return None

    def successors(self) -> List[str]:
        """Labels of possible successor blocks."""
        term = self.terminator
        return term.successors() if term is not None else []

    def body(self) -> List[Instr]:
        """Instructions excluding the terminator."""
        if self.terminator is not None:
            return self.instrs[:-1]
        return list(self.instrs)


@dataclasses.dataclass
class Function:
    """A function: parameter count, register count and a block list.

    ``blocks[0]`` is the entry block.  ``num_regs`` is the number of virtual
    registers used; parameters occupy registers ``0 .. num_params - 1``.
    """

    name: str
    num_params: int
    num_regs: int
    blocks: List[BasicBlock] = dataclasses.field(default_factory=list)

    def block_map(self) -> Dict[str, BasicBlock]:
        """Label -> block mapping (labels must be unique)."""
        mapping = {}
        for block in self.blocks:
            if block.label in mapping:
                raise IRError(f"duplicate block label {block.label!r} in {self.name}")
            mapping[block.label] = block
        return mapping

    def new_reg(self) -> int:
        """Allocate a fresh virtual register."""
        reg = self.num_regs
        self.num_regs += 1
        return reg

    def instructions(self) -> Iterator[Instr]:
        """All instructions across all blocks, in layout order."""
        for block in self.blocks:
            yield from block.instrs

    def branch_ids(self) -> List[BranchId]:
        """Identities of all conditional branches present in the function."""
        return [
            instr.branch_id
            for instr in self.instructions()
            if instr.op == Opcode.BR
        ]


@dataclasses.dataclass
class GlobalVar:
    """A global scalar (size 1) or array (size > 1) with optional initializer."""

    name: str
    size: int
    init: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.size < 1:
            raise IRError(f"global {self.name!r} has non-positive size {self.size}")
        if len(self.init) > self.size:
            raise IRError(
                f"global {self.name!r}: initializer longer than size {self.size}"
            )


@dataclasses.dataclass
class Module:
    """A whole program: globals plus functions.  Execution starts at ``main``."""

    name: str
    globals: List[GlobalVar] = dataclasses.field(default_factory=list)
    functions: List[Function] = dataclasses.field(default_factory=list)

    def function(self, name: str) -> Function:
        """Look up a function by name."""
        for func in self.functions:
            if func.name == name:
                return func
        raise IRError(f"module {self.name!r} has no function {name!r}")

    def has_function(self, name: str) -> bool:
        """Whether a function with the given name exists."""
        return any(func.name == name for func in self.functions)

    def branch_ids(self) -> List[BranchId]:
        """Identities of all conditional branches in the module."""
        ids: List[BranchId] = []
        for func in self.functions:
            ids.extend(func.branch_ids())
        return ids
