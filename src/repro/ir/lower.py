"""Lowering CFG-form IR to the flat executable form the VM runs.

The lowered form is deliberately plain: per function, a list of tuples whose
first element is the integer opcode.  Branch targets are absolute indices
into the function's code list.  Global symbols become absolute memory
addresses; function references become indices into the program's function
table (that index is also the run-time value of a ``funcaddr``, which is what
indirect calls dispatch on).

Tuple layouts::

    (CONST, dst, imm)
    (MOV, dst, a)
    (BIN, subop, dst, a, b)
    (UN, subop, dst, a)
    (SELECT, dst, cond, b, c)
    (LOAD, dst, a)            # dst <- memory[regs[a]]
    (STORE, a, b)             # memory[regs[a]] <- regs[b]
    (GETC, dst)
    (PUTC, a)
    (CALL, func_index, dst, args)     # dst == -1 when result unused
    (ICALL, a, dst, args)
    (BR, cond, then_pc, else_pc, branch_index)
    (JMP, pc)
    (RET, a)                  # a == -1 when no value (returns 0)
    (HALT,)

``branch_index`` indexes the program-wide :attr:`LoweredProgram.branch_table`
of :class:`~repro.ir.instructions.BranchId`, which is what per-run branch
counters are keyed by.

As a code-layout optimization (and because the paper assumes an ILP compiler
eliminates unconditional-jump breaks by laying code out well), a ``JMP``
whose target is the immediately following block is elided.
"""
from __future__ import annotations

import dataclasses
from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.ir.cfg import BasicBlock, Function, IRError, Module
from repro.ir.instructions import BranchId, Instr
from repro.ir.opcodes import Opcode
from repro.ir.validate import validate_module


@dataclasses.dataclass
class LoweredFunction:
    """One function in executable form."""

    name: str
    num_params: int
    num_regs: int
    code: List[Tuple[Any, ...]]
    #: Every pc a BR/JMP in this function can transfer to.  The engine
    #: (:mod:`repro.vm.engine`) starts a block at each of these pcs when it
    #: compiles the function.
    jump_targets: FrozenSet[int] = dataclasses.field(repr=False, compare=False)


@dataclasses.dataclass
class LoweredProgram:
    """A whole program in executable form.  Its memory image is sparse:
    see :meth:`initial_memory`."""

    name: str
    functions: List[LoweredFunction]
    function_index: Dict[str, int]
    main_index: int
    memory_size: int
    memory_init: List[int]
    symbols: Dict[str, int]
    branch_table: List[BranchId]
    #: Cache slot for the engine's analysed form and compiled functions (a
    #: ``repro.vm.engine.PredecodedProgram``); populated lazily by
    #: ``repro.vm.engine.predecode`` so repeated runs of one compiled
    #: program pay for them exactly once per process.
    predecoded: Optional[Any] = dataclasses.field(
        default=None, repr=False, compare=False
    )

    def __getstate__(self) -> Dict[str, Any]:
        # The engine's generated functions close over modules, which do not
        # pickle; a copy leaves the slot empty and predecodes on first run.
        state = dict(self.__dict__)
        state["predecoded"] = None
        return state

    def initial_memory(self) -> List[int]:
        """A fresh copy of the ``memory_size`` words a run starts with.

        ``memory_init`` holds the words from address 0 through the last
        nonzero initialized word and no trailing zeros, so it is empty when
        no word is initialized; every word from ``len(memory_init)`` up to
        ``memory_size`` starts at 0.
        """
        memory = [0] * self.memory_size
        memory[: len(self.memory_init)] = self.memory_init
        return memory


def lower_module(module: Module, validate: bool = True) -> LoweredProgram:
    """Lower a validated module to executable form.

    Globals are laid out in declaration order, and only the image
    :meth:`LoweredProgram.initial_memory` describes is stored: the dense
    memory is never built here.
    """
    if validate:
        validate_module(module)

    symbols: Dict[str, int] = {}
    memory_init: List[int] = []
    memory_size = 0
    for var in module.globals:
        symbols[var.name] = memory_size
        if any(var.init):
            memory_init.extend([0] * (memory_size - len(memory_init)))
            memory_init.extend(var.init)
        memory_size += var.size
    while memory_init and not memory_init[-1]:
        memory_init.pop()

    function_index = {func.name: i for i, func in enumerate(module.functions)}
    branch_table: List[BranchId] = []
    branch_index: Dict[BranchId, int] = {}

    functions: List[LoweredFunction] = []
    for func in module.functions:
        functions.append(
            _lower_function(func, symbols, function_index, branch_table, branch_index)
        )

    return LoweredProgram(
        name=module.name,
        functions=functions,
        function_index=function_index,
        main_index=function_index["main"],
        memory_size=memory_size,
        memory_init=memory_init,
        symbols=symbols,
        branch_table=branch_table,
    )


def _layout_blocks(func: Function) -> List[BasicBlock]:
    """Order blocks to maximize fall-through (greedy chain placement).

    Starting from each not-yet-placed block (entry first), follow the jump
    target (for ``JMP``) or the not-taken edge (for ``BR``) while the
    successor is unplaced.  This is the code-rearrangement the paper assumes
    a good ILP compiler performs to eliminate unconditional-jump breaks.
    """
    block_map = {block.label: block for block in func.blocks}
    placed: List[BasicBlock] = []
    visited: Set[str] = set()
    for seed in func.blocks:
        block: Optional[BasicBlock] = seed
        while block is not None and block.label not in visited:
            visited.add(block.label)
            placed.append(block)
            term = block.terminator
            succ = None
            if term is not None:
                if term.op == Opcode.JMP:
                    succ = term.then_label
                elif term.op == Opcode.BR:
                    succ = term.else_label
            if succ is None or succ in visited:
                block = None
            else:
                block = block_map.get(succ)
    return placed


def _lower_function(
    func: Function,
    symbols: Dict[str, int],
    function_index: Dict[str, int],
    branch_table: List[BranchId],
    branch_index: Dict[BranchId, int],
) -> LoweredFunction:
    blocks = _layout_blocks(func)

    # First pass: compute the starting pc of every block, accounting for
    # elided fall-through jumps.
    block_pcs: Dict[str, int] = {}
    pc = 0
    for position, block in enumerate(blocks):
        block_pcs[block.label] = pc
        for instr in block.instrs:
            if _is_fallthrough_jump(blocks, position, instr):
                continue
            pc += 1

    code: List[Tuple[Any, ...]] = []
    jump_targets: Set[int] = set()
    for position, block in enumerate(blocks):
        for instr in block.instrs:
            if _is_fallthrough_jump(blocks, position, instr):
                continue
            if instr.op == Opcode.BR:
                jump_targets.add(block_pcs[instr.then_label])
                jump_targets.add(block_pcs[instr.else_label])
            elif instr.op == Opcode.JMP:
                jump_targets.add(block_pcs[instr.then_label])
            code.append(
                _lower_instr(
                    instr, block_pcs, symbols, function_index, branch_table,
                    branch_index,
                )
            )

    return LoweredFunction(
        name=func.name,
        num_params=func.num_params,
        num_regs=func.num_regs,
        code=code,
        jump_targets=frozenset(jump_targets),
    )


def _is_fallthrough_jump(
    blocks: List[BasicBlock], position: int, instr: Instr
) -> bool:
    """Whether ``instr`` is a JMP to the next block in layout order."""
    if instr.op != Opcode.JMP:
        return False
    if position + 1 >= len(blocks):
        return False
    return instr.then_label == blocks[position + 1].label


def _lower_instr(
    instr: Instr,
    block_pcs: Dict[str, int],
    symbols: Dict[str, int],
    function_index: Dict[str, int],
    branch_table: List[BranchId],
    branch_index: Dict[BranchId, int],
) -> Tuple[Any, ...]:
    op = instr.op
    if op == Opcode.CONST:
        return (int(Opcode.CONST), instr.dst, instr.imm)
    if op == Opcode.MOV:
        return (int(Opcode.MOV), instr.dst, instr.a)
    if op == Opcode.ADDR:
        return (int(Opcode.CONST), instr.dst, symbols[instr.symbol])
    if op == Opcode.FUNCADDR:
        return (int(Opcode.CONST), instr.dst, function_index[instr.symbol])
    if op == Opcode.BIN:
        return (int(Opcode.BIN), instr.subop, instr.dst, instr.a, instr.b)
    if op == Opcode.UN:
        return (int(Opcode.UN), instr.subop, instr.dst, instr.a)
    if op == Opcode.SELECT:
        return (int(Opcode.SELECT), instr.dst, instr.a, instr.b, instr.c)
    if op == Opcode.LOAD:
        return (int(Opcode.LOAD), instr.dst, instr.a)
    if op == Opcode.STORE:
        return (int(Opcode.STORE), instr.a, instr.b)
    if op == Opcode.GETC:
        return (int(Opcode.GETC), instr.dst)
    if op == Opcode.PUTC:
        return (int(Opcode.PUTC), instr.a)
    if op == Opcode.CALL:
        dst = -1 if instr.dst is None else instr.dst
        return (int(Opcode.CALL), function_index[instr.symbol], dst, instr.args)
    if op == Opcode.ICALL:
        dst = -1 if instr.dst is None else instr.dst
        return (int(Opcode.ICALL), instr.a, dst, instr.args)
    if op == Opcode.BR:
        bid = instr.branch_id
        if bid not in branch_index:
            branch_index[bid] = len(branch_table)
            branch_table.append(bid)
        return (
            int(Opcode.BR),
            instr.a,
            block_pcs[instr.then_label],
            block_pcs[instr.else_label],
            branch_index[bid],
        )
    if op == Opcode.JMP:
        return (int(Opcode.JMP), block_pcs[instr.then_label])
    if op == Opcode.RET:
        return (int(Opcode.RET), -1 if instr.a is None else instr.a)
    if op == Opcode.HALT:
        return (int(Opcode.HALT),)
    raise IRError(f"cannot lower opcode {op!r}")
