"""The counting VM's engine: each guest function compiled to one Python function.

The original interpreter (kept as the oracle in ``tests/legacy_vm.py``)
re-derives everything per executed operation: it fetches a flat tuple,
compares its opcode down an ``elif`` chain and indexes a register list.
For a simulator whose entire job is executing hundreds of millions of
RISC-ops, that per-op bookkeeping dominates.

This module instead generates, for every
:class:`~repro.ir.lower.LoweredFunction`, one Python function that
executes it:

* **Registers are locals** (``r0``, ``r1``, ...).  Parameters arrive as
  arguments.  The registers a backward liveness pass finds live at entry
  start at zero, as every register of a legacy frame does; every other
  register is written before it is read on every path.
* **Loop headers are arms** of one ``while True`` loop, which picks the
  arm for ``pc`` in a binary tree of ``if pc < k`` tests; control reaches
  another arm by setting ``pc``.  The arms are the targets of retreating
  edges in a depth-first search from pc 0, so every cycle passes one,
  and each arm that reaches its own start runs in a ``while True`` of its
  own.  Every other block is emitted where control comes from (the entry
  block at the top, a branch's target inside its ``if``), once per way
  in: a join's tail is copied into each predecessor, as a superblock
  compiler duplicates it, unless it is longer than :data:`_MAX_TAIL`
  instructions, in which case the join is an arm too (see :func:`_arms`
  and :class:`_Writer`).  A function with one arm sets no ``pc``.
* **A guest call is a Python call** (``r3 = f7(depth - 1, r1, r2)``) that
  returns the callee's value; ``RET`` returns it, and ``halt`` raises
  :class:`_Halt`, which unwinds every guest frame.
* **Operations are native expressions** (``r5 = r3 + r4``,
  ``r2 = 1 if r0 < r1 else 0``); only C-style ``DIV``/``MOD`` of a
  negative operand call out.  A comparison that a ``BR`` tests right
  after it becomes the ``if`` test itself, and its 0/1 result is stored
  only if a successor reads it.  ``LOAD``/``STORE`` keep their bounds
  checks, with the memory size inlined.
* **Constants and copies are folded** into their uses within an element
  (see :func:`_fold`): a use of a register a ``CONST`` or ``MOV`` set
  reads the literal or the copied register, and the store is left out
  when its register is dead after the element.  A ``LOAD``/``STORE``
  whose address folds to a literal has its bounds check decided when the
  code is generated.  Registers are not observable and a fault ends the
  run, so no counter can tell a dropped store was ever there.
* **The instruction count** is added to ``icount`` only where it can be
  observed: before an op that can fault (``DIV``, ``MOD``, ``SHL``,
  ``SHR``), a call, a return, a ``halt``, control reaching an arm, in
  the recording variant a branch event, and in the fault branch of a
  ``LOAD``/``STORE`` bounds check.  Elsewhere an *element* (a run of
  straight-line ops plus the ``BR``, ``JMP``, ``RET`` or ``CALL`` that
  follows it, or one other instruction; see :func:`_blocks`) carries its
  count forward along its path, and the next settling adds it in one
  step.
* **One counter per path.**  Below an arm's head the code is a tree, so
  each place control leaves it (a transfer to an arm, a return, a
  ``halt``, a call) ends one path, and one closure cell per distinct
  multiset of events (``BR`` outcomes, ``JMP``\\ s, ``SELECT``\\ s and
  the direct call that ends a path) counts how often such a path ran.
  The per-branch counts and the control events are derived from those
  cells when the run ends (see :func:`_derived_counts`).
* **The instruction limit** is checked only where control can come
  back: at the head of each arm and at function entry.  When the run
  ends, with a return, a ``halt`` or a guest fault, a count over the
  limit raises the limit error in place of the result or fault, and
  the branch events counted past the limit are dropped.  ``icount`` only
  grows, so this is the verdict a check before every element would give.

The shared per-run state (the instruction count, the path and
indirect-call counters, ``memory``, the event buffer and the function
table) lives in closure cells made for each run, so each function is
compiled once per program and bound to a run with
:class:`types.FunctionType`.  The function
cells are cleared after the run, so a run's ``memory`` (built from the
program's sparse image by ``LoweredProgram.initial_memory``) is freed as
soon as it ends instead of waiting for the cyclic collector.

One code generator emits two variants of every function.  The plain
variant runs :func:`run_fast`.  The recording variant runs
:func:`run_monitored`: each ``BR`` also appends its event to a bounded
buffer (see :mod:`repro.vm.monitors`), and each full chunk is replayed
to the monitors with the ``in_monitor`` flag raised, so a buggy
monitor's ``ZeroDivisionError`` propagates as-is instead of being
mis-attributed to the guest program.  :func:`predecode` analyses a
program once and caches the result on
:attr:`LoweredProgram.predecoded`; each variant is generated and
compiled on its first run and cached there too.  Both entry points
produce bit-identical :class:`RunResult`\\ s to the legacy interpreter;
the differential harness in ``tests/test_vm_engine.py`` holds them to
that.
"""
from __future__ import annotations

import builtins
import sys
from collections import Counter
from types import CellType, CodeType, FunctionType
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

import repro.vm.monitors as vm_monitors
from repro.ir.lower import LoweredFunction, LoweredProgram
from repro.ir.opcodes import BinOp, Opcode, UnOp, _c_div, _c_mod
from repro.vm.counters import ControlEvents, RunResult
from repro.vm.errors import InstructionLimitExceeded, VMError
from repro.vm.monitors import BranchMonitor, deliver

_OP_CONST = int(Opcode.CONST)
_OP_MOV = int(Opcode.MOV)
_OP_BIN = int(Opcode.BIN)
_OP_UN = int(Opcode.UN)
_OP_SELECT = int(Opcode.SELECT)
_OP_LOAD = int(Opcode.LOAD)
_OP_STORE = int(Opcode.STORE)
_OP_GETC = int(Opcode.GETC)
_OP_PUTC = int(Opcode.PUTC)
_OP_CALL = int(Opcode.CALL)
_OP_ICALL = int(Opcode.ICALL)
_OP_BR = int(Opcode.BR)
_OP_JMP = int(Opcode.JMP)
_OP_RET = int(Opcode.RET)
_OP_HALT = int(Opcode.HALT)

#: Straight-line ops: register and memory traffic with no control flow,
#: no I/O and no event counters.  An element is a run of these ...
_STRAIGHT_LINE = frozenset(
    {_OP_CONST, _OP_MOV, _OP_BIN, _OP_UN, _OP_LOAD, _OP_STORE}
)

#: ... plus, when one follows the run, one of these.
_CLOSES_RUN = frozenset({_OP_BR, _OP_JMP, _OP_RET, _OP_CALL})

#: Ops after which control never reaches the next instruction.
_TRANSFERS = frozenset({_OP_BR, _OP_JMP, _OP_RET, _OP_HALT})

#: Ops that call or end a function or the run, so ``icount`` must be exact
#: before them (see :meth:`_Writer.observes`).
_OBSERVERS = frozenset({_OP_CALL, _OP_ICALL, _OP_RET, _OP_HALT})

#: How deep blocks are nested where control comes from; deeper ones
#: become arms of the dispatch loop instead.
_MAX_NESTING = 24

#: The longest tail (see :func:`_arms`) a join may have to be emitted once
#: per way in; a join with a longer one is an arm of the dispatch loop.
_MAX_TAIL = 64

#: Python frames allowed above the deepest guest frame: the run's own
#: frames and, in a monitored run, a monitor replaying a chunk.
_RECURSION_HEADROOM = 100

#: Per-run state shared by every generated function through closure cells.
#: Each path counter (see :meth:`_Writer.leaf`) is a cell of its own.
_STATE = (
    "icount", "limit", "memory", "indirect_calls", "indirect_returns",
    "stdin", "putc", "functions", "record", "room", "flush",
)

#: The events of a path (see :meth:`_Writer.leaf`) besides a ``BR``
#: outcome, whose event is ``bidx << 1 | taken``, as the recording
#: variant buffers it.
_JUMP, _SELECT, _DIRECT_CALL = -1, -2, -3

# -- analysis ------------------------------------------------------------------

Instruction = Tuple[Any, ...]

#: The events along a path through a function's generated code.
Path = Tuple[int, ...]


class Block(NamedTuple):
    """A run of code that starts at a jump target (or pc 0) and ends
    before the next one, split into elements."""

    start: int
    #: The pc control falls through to if the block ends without a transfer.
    end: int
    elements: List[List[Instruction]]


def _blocks(func: LoweredFunction) -> Dict[int, Block]:
    """Split ``func`` into blocks at its jump targets, and each block into
    elements.  Code after a block's ``BR``/``JMP``/``RET``/``HALT`` is
    unreachable (nothing jumps to it) and is dropped."""
    code = func.code
    starts = sorted({0} | set(func.jump_targets))
    ends = starts[1:] + [len(code)]
    blocks: Dict[int, Block] = {}
    for start, end in zip(starts, ends):
        end = min(end, len(code))
        elements: List[List[Instruction]] = []
        pc = start
        while pc < end:
            first = pc
            while pc < end and code[pc][0] in _STRAIGHT_LINE:
                pc += 1
            if pc < end and (pc == first or code[pc][0] in _CLOSES_RUN):
                pc += 1
            elements.append(code[first:pc])
            if code[pc - 1][0] in _TRANSFERS:
                break
        blocks[start] = Block(start, end, elements)
    return blocks


def _exits(block: Block, length: int) -> List[int]:
    """The pcs control can go to from the end of ``block``."""
    last = block.elements[-1][-1] if block.elements else None
    if last is not None and last[0] in _TRANSFERS:
        if last[0] == _OP_BR:
            return [last[2], last[3]]
        return [last[1]] if last[0] == _OP_JMP else []
    return [block.end] if block.end < length else []


def _uses_and_def(ins: Instruction) -> Tuple[Sequence[int], int]:
    """The registers ``ins`` reads, and the one it writes (or -1)."""
    op = ins[0]
    if op == _OP_CONST or op == _OP_GETC:
        return (), ins[1]
    if op == _OP_MOV or op == _OP_LOAD:
        return (ins[2],), ins[1]
    if op == _OP_BIN:
        return (ins[3], ins[4]), ins[2]
    if op == _OP_UN:
        return (ins[3],), ins[2]
    if op == _OP_SELECT:
        return (ins[2], ins[3], ins[4]), ins[1]
    if op == _OP_STORE:
        return (ins[1], ins[2]), -1
    if op == _OP_PUTC or op == _OP_BR:
        return (ins[1],), -1
    if op == _OP_CALL:
        return ins[3], ins[2]
    if op == _OP_ICALL:
        return (ins[1],) + tuple(ins[3]), ins[2]
    if op == _OP_RET:
        return ((ins[1],) if ins[1] != -1 else ()), -1
    return (), -1  # JMP, HALT


def _live_in(
    blocks: Dict[int, Block], exits: Dict[int, List[int]]
) -> Dict[int, int]:
    """Per block, the registers some path from its start reads before
    writing them (as a bit set): backward liveness."""
    gens: Dict[int, int] = {}
    kills: Dict[int, int] = {}
    for block in blocks.values():
        gen = kill = 0
        for element in reversed(block.elements):
            for ins in reversed(element):
                uses, dst = _uses_and_def(ins)
                if dst >= 0:
                    kill |= 1 << dst
                    gen &= ~(1 << dst)
                for reg in uses:
                    gen |= 1 << reg
        gens[block.start] = gen
        kills[block.start] = kill
    live = dict.fromkeys(blocks, 0)
    order = list(reversed(blocks))
    changed = True
    while changed:
        changed = False
        for start in order:
            out = 0
            for succ in exits[start]:
                out |= live.get(succ, 0)
            value = gens[start] | (out & ~kills[start])
            if value != live[start]:
                live[start] = value
                changed = True
    return live


def _live_outs(block: Block, live: Dict[int, int], length: int) -> List[int]:
    """Per element of ``block``, the registers live after it (a bit set),
    from the live sets of the block's exits backwards."""
    out = 0
    for target in _exits(block, length):
        out |= live.get(target, 0)
    outs: List[int] = []
    for element in reversed(block.elements):
        outs.append(out)
        for ins in reversed(element):
            uses, dst = _uses_and_def(ins)
            if dst >= 0:
                out &= ~(1 << dst)
            for reg in uses:
                out |= 1 << reg
    outs.reverse()
    return outs


def _literal(text: str) -> Optional[int]:
    """The value of an operand text that is a literal, else ``None``."""
    return None if text[0] == "r" else int(text)


def _fold(
    element: List[Instruction], live_out: int
) -> Tuple[List[Dict[int, str]], Set[int]]:
    """Fold the ``CONST``s and ``MOV``s of one element into their uses.

    Returns, per instruction, the text each register it reads is emitted
    as: the literal a ``CONST`` set, the register a ``MOV`` copied (while
    that register still holds the copied value), or the register itself.
    Also returns the positions of the ``CONST``/``MOV`` stores to leave
    out: those whose register is dead after the element and never read
    raw within it (a read is raw when the copy's source was redefined
    first, so the copy must really have been made).
    """
    known: Dict[int, str] = {}
    #: Per register, the registers that may be known as copies of it.
    copies: Dict[int, List[int]] = {}
    #: Per register, the position of the ``CONST``/``MOV`` that set it.
    stores: Dict[int, int] = {}
    kept: Set[int] = set()
    operands: List[Dict[int, str]] = []
    for pos, ins in enumerate(element):
        uses, dst = _uses_and_def(ins)
        texts: Dict[int, str] = {}
        for reg in uses:
            text = known.get(reg)
            if text is None:
                text = f"r{reg}"
                if reg in stores:
                    kept.add(stores[reg])
            texts[reg] = text
        operands.append(texts)
        op = ins[0]
        if dst < 0 or op == _OP_MOV and texts[ins[2]] == f"r{dst}":
            continue  # a copy of itself changes nothing
        stores.pop(dst, None)
        known.pop(dst, None)
        for reg in copies.pop(dst, ()):
            if known.get(reg) == f"r{dst}":
                del known[reg]
        if op == _OP_CONST:
            known[dst] = repr(ins[2])
        elif op == _OP_MOV:
            text = known[dst] = texts[ins[2]]
            if _literal(text) is None:
                copies.setdefault(int(text[1:]), []).append(dst)
        else:
            continue
        stores[dst] = pos
    kept.update(pos for reg, pos in stores.items() if live_out >> reg & 1)
    dropped = {
        pos
        for pos, ins in enumerate(element)
        if (ins[0] == _OP_CONST or ins[0] == _OP_MOV) and pos not in kept
    }
    return operands, dropped


def _depth_first(exits: Dict[int, List[int]]) -> Tuple[List[int], Set[int]]:
    """The blocks reachable from pc 0 in depth-first postorder, and the
    loop headers among them: the targets of retreating edges (edges to a
    block whose search is still open).  Every cycle holds such an edge."""
    order: List[int] = []
    headers: Set[int] = set()
    seen = {0}
    open_blocks = {0}
    stack = [(0, iter(exits[0]))]
    while stack:
        start, successors = stack[-1]
        for succ in successors:
            if succ in open_blocks:
                headers.add(succ)
            elif succ not in seen:
                seen.add(succ)
                open_blocks.add(succ)
                stack.append((succ, iter(exits[succ])))
                break
        else:
            stack.pop()
            open_blocks.remove(start)
            order.append(start)
    return order, headers


def _arms(blocks: Dict[int, Block], exits: Dict[int, List[int]]) -> Set[int]:
    """The blocks that head arms of the dispatch loop: the loop headers,
    and the joins (blocks with more than one way in) whose tail is longer
    than :data:`_MAX_TAIL`.  A block's tail is its own instructions plus
    those of the non-arm blocks it reaches inline, so it is computed in
    postorder, once every successor's tail and arm status is known."""
    order, arms = _depth_first(exits)
    # The function's entry counts as one way into pc 0.
    entries = Counter(succ for start in order for succ in exits[start])
    entries[0] += 1
    tails: Dict[int, int] = {}
    for start in order:
        tail = sum(len(element) for element in blocks[start].elements)
        tail += sum(tails[succ] for succ in exits[start] if succ not in arms)
        tails[start] = tail
        if entries[start] > 1 and tail > _MAX_TAIL:
            arms.add(start)
    return arms


class PredecodedFunction:
    """One function, analysed for code generation."""

    __slots__ = (
        "name", "num_params", "length", "blocks", "arms", "live", "zeros",
    )

    def __init__(self, func: LoweredFunction) -> None:
        self.name = func.name
        self.num_params = func.num_params
        self.length = len(func.code)
        #: Its blocks by first pc, in code order.
        self.blocks = _blocks(func)
        exits = {
            start: _exits(block, self.length) for start, block in self.blocks.items()
        }
        #: Blocks that head arms of the dispatch loop; every other block
        #: is emitted where control comes from, once per way in.
        self.arms = frozenset(_arms(self.blocks, exits))
        #: Per block, the registers live at its start (a bit set).
        self.live = _live_in(self.blocks, exits)
        #: Registers the generated function sets to zero on entry.
        self.zeros = [
            reg
            for reg in range(func.num_params, func.num_regs)
            if self.live[0] >> reg & 1
        ]


class PredecodedProgram:
    """A whole program analysed for code generation, with the compiled
    variants of its functions once built (see :func:`compiled`)."""

    __slots__ = (
        "program", "functions", "main_index", "namespace", "plain", "recording",
        "paths",
    )

    def __init__(self, program: LoweredProgram) -> None:
        self.program = program
        self.functions = [PredecodedFunction(func) for func in program.functions]
        self.main_index = program.main_index
        #: The globals every generated function of this program shares.
        self.namespace = _namespace(program)
        #: Per function, the compiled code of each variant, once built.
        self.plain: Optional[List[CodeType]] = None
        self.recording: Optional[List[CodeType]] = None
        #: The name of each path counter by the sorted events it counts,
        #: shared by every function and both variants.
        self.paths: Dict[Path, str] = {}


def predecode(program: LoweredProgram) -> PredecodedProgram:
    """The analysed form of ``program``, built once and cached on it."""
    cached = program.predecoded
    if cached is None:
        cached = program.predecoded = PredecodedProgram(program)
    return cached  # type: ignore[no-any-return]


# -- code generation -----------------------------------------------------------


class _Halt(Exception):
    """Raised by a guest ``halt``: unwinds every guest frame."""


def _namespace(program: LoweredProgram) -> Dict[str, Any]:
    """The globals of a program's generated functions: the helpers that
    build its fault messages, so each check is short code."""
    name = program.name
    functions = program.functions

    def exceeded(limit: int) -> VMError:
        return InstructionLimitExceeded(f"{name}: exceeded {limit} instructions")

    def fault(what: str) -> VMError:
        return VMError(f"{name}: {what}")

    def arity_error(target: int, count: int) -> VMError:
        callee = functions[target]
        return VMError(
            f"{name}: indirect call to {callee.name} with "
            f"{count} args, expects {callee.num_params}"
        )

    return {
        "__builtins__": builtins,
        "_Halt": _Halt,
        "_div": _c_div,
        "_mod": _c_mod,
        "_exceeded": exceeded,
        "_fault": fault,
        "_arity": tuple(func.num_params for func in functions),
        "_arity_error": arity_error,
    }


#: Statement templates per BinOp.  C-style DIV/MOD agree with Python's
#: ``//`` and ``%`` when the dividend is non-negative and the divisor
#: positive; otherwise (including division by zero) they call out.
_BIN_STMTS = {
    int(BinOp.ADD): "r{d} = {a} + {b}",
    int(BinOp.SUB): "r{d} = {a} - {b}",
    int(BinOp.MUL): "r{d} = {a} * {b}",
    int(BinOp.DIV): "r{d} = {a} // {b} if {a} >= 0 and {b} > 0 else _div({a}, {b})",
    int(BinOp.MOD): "r{d} = {a} % {b} if {a} >= 0 and {b} > 0 else _mod({a}, {b})",
    int(BinOp.AND): "r{d} = {a} & {b}",
    int(BinOp.OR): "r{d} = {a} | {b}",
    int(BinOp.XOR): "r{d} = {a} ^ {b}",
    int(BinOp.SHL): "r{d} = {a} << {b}",
    int(BinOp.SHR): "r{d} = {a} >> {b}",
    int(BinOp.EQ): "r{d} = 1 if {a} == {b} else 0",
    int(BinOp.NE): "r{d} = 1 if {a} != {b} else 0",
    int(BinOp.LT): "r{d} = 1 if {a} < {b} else 0",
    int(BinOp.LE): "r{d} = 1 if {a} <= {b} else 0",
    int(BinOp.GT): "r{d} = 1 if {a} > {b} else 0",
    int(BinOp.GE): "r{d} = 1 if {a} >= {b} else 0",
}

#: Comparisons a ``BR`` right after them can test directly.
_TESTS = {
    int(BinOp.EQ): "==",
    int(BinOp.NE): "!=",
    int(BinOp.LT): "<",
    int(BinOp.LE): "<=",
    int(BinOp.GT): ">",
    int(BinOp.GE): ">=",
}

_UN_STMTS = {
    int(UnOp.NEG): "r{d} = -{a}",
    int(UnOp.NOT): "r{d} = 1 if {a} == 0 else 0",
    int(UnOp.BNOT): "r{d} = ~{a}",
}

#: ``BinOp``\\ s that can raise: ``DIV``/``MOD`` by zero, shifts by a
#: negative count.
_FAULTING_BINOPS = frozenset(
    {int(BinOp.DIV), int(BinOp.MOD), int(BinOp.SHL), int(BinOp.SHR)}
)

_LIMIT_CHECK = ["if icount > limit:", "    raise _exceeded(limit)"]

_DEPTH_CHECK = ["if not depth:", "    raise _fault('call depth limit exceeded')"]


def _call(dst: int, callee: str, args: Sequence[str]) -> str:
    call = f"{callee}({', '.join(['depth - 1', *args])})"
    return call if dst == -1 else f"r{dst} = {call}"


def _indent(lines: List[str]) -> List[str]:
    return ["    " + line for line in lines]


def _settle(count: int) -> List[str]:
    """Add the instructions counted along the path so far to ``icount``."""
    return [f"icount += {count}"] if count else []


class _Writer:
    """Emits the source of one function for one variant.

    The blocks in :attr:`PredecodedFunction.arms` are the arms of the
    dispatch loop; every other block is emitted where control comes from,
    nested in the ``if`` of a branch, once per way in, up to
    :data:`_MAX_NESTING` levels deep (deeper ones become arms too).  An
    arm that can reach its own start runs in a ``while True`` of its own,
    so a loop body that stays within one arm never goes through the tree.
    With ``single``, the function is written for at most one arm: control
    that leaves the entry code can only go there, so no ``pc`` is set and
    no tree picks it.

    Each element adds its instructions to ``count``, the instructions
    executed on the path since ``icount`` was last settled.  The count is
    settled before an element that can observe ``icount`` (see
    :meth:`observes`) and before control goes to an arm, so ``icount`` is
    exact wherever it is read: at a fault, a call, a return, the limit
    check at each arm's head and at entry, and, in the recording variant,
    each branch event.  A bounds check settles the count in its fault
    branch instead, and the count is carried on past it.

    The code below an arm's head (or the function's entry) is a tree, so
    the place where control leaves it names the whole path that led
    there.  Each element adds its events (``BR`` outcomes, ``JMP``\\ s and
    ``SELECT``\\ s) to ``path``, and each leaf counts its path once (see
    :meth:`leaf`): at a transfer to an arm, a return, a ``halt``, and
    before a call, which a ``halt`` in the callee may never return from.
    """

    def __init__(
        self,
        program: LoweredProgram,
        func: PredecodedFunction,
        recording: bool,
        single: bool,
    ) -> None:
        self.program = program
        self.func = func
        self.recording = recording
        self.single = single
        self.paths = predecode(program).paths
        #: Shared state the function writes (its ``nonlocal`` names).
        self.assigned = {"icount"}
        self.arms: Dict[int, List[str]] = {}
        self.pending: List[int] = []
        self.looped = False
        #: Per block start, each element's :func:`_fold`, computed once
        #: however many times the block is written.
        self.folds: Dict[int, List[Tuple[List[Dict[int, str]], Set[int]]]] = {}

    def leaf(self, path: Path) -> List[str]:
        """Count a path that ends here: one bump of the counter for its
        events, shared by every path with the same events."""
        if not path:
            return []
        events = tuple(sorted(path))
        name = self.paths.get(events)
        if name is None:
            name = self.paths[events] = f"p{len(self.paths)}"
        self.assigned.add(name)
        return [f"{name} += 1"]

    def goto(
        self,
        target: int,
        nesting: int,
        head: Optional[int],
        count: int,
        path: Path,
    ) -> List[str]:
        """Transfer control to ``target``, inside the arm headed by
        ``head`` if it loops (else ``None``), ``count`` instructions after
        ``icount`` was last settled, along ``path``."""
        if target not in self.func.arms and nesting < _MAX_NESTING:
            return self.block(
                self.func.blocks[target], nesting + 1, head, count, path
            )
        lines = _settle(count) + self.leaf(path)
        if target == head:
            self.looped = True
            return lines + ["continue"]
        if target not in self.arms and target not in self.pending:
            self.pending.append(target)
        if self.single:
            return lines
        return lines + [f"pc = {target}"] + (["break"] if head is not None else [])

    def block(
        self,
        block: Block,
        nesting: int,
        head: Optional[int],
        count: int,
        path: Path,
    ) -> List[str]:
        """A block's statements: each element's body, then its transfer."""
        lines: List[str] = []
        folds = self.folds.get(block.start)
        if folds is None:
            live_outs = _live_outs(block, self.func.live, self.func.length)
            folds = self.folds[block.start] = [
                _fold(element, live_out)
                for element, live_out in zip(block.elements, live_outs)
            ]
        for element, (operands, skipped) in zip(block.elements, folds):
            body, count, path = self.element(
                element, operands, skipped, nesting, head, count, path
            )
            lines += body
        if block.elements and block.elements[-1][-1][0] in _TRANSFERS:
            return lines
        if block.end < self.func.length:
            return lines + self.goto(block.end, nesting, head, count, path)
        # Only malformed (unvalidated) code runs off the end of a function.
        fetch = block.end if block.elements else block.start
        return lines + _settle(count) + [
            f"raise _fault('bad register or code reference at pc {fetch}')"
        ]

    def element(
        self,
        element: List[Instruction],
        operands: List[Dict[int, str]],
        skipped: Set[int],
        nesting: int,
        head: Optional[int],
        count: int,
        path: Path,
    ) -> Tuple[List[str], int, Path]:
        """An element's body, with its ``CONST``s and ``MOV``s folded into
        their uses as ``operands`` and ``skipped`` (see :func:`_fold`)
        give, and the count and path it leaves open.  The count is settled
        first if the element can observe it (see :meth:`observes`)."""
        skipped = set(skipped)  # the fold is shared by every copy
        count += len(element)
        lines: List[str] = []
        if any(self.observes(ins) for ins in element):
            lines = _settle(count)
            count = 0
        test = None
        if element[-1][0] == _OP_BR and len(element) > 1:
            test = self.test(element[-2], operands[-2], element[-1])
            if test is not None:
                skipped.add(len(element) - 2)
        for pos, ins in enumerate(element):
            if pos in skipped:
                continue
            op = ins[0]
            if op == _OP_BR:
                lines += self.branch(
                    ins, operands[pos], test, nesting, head, count, path
                )
                continue
            lines += self.op(ins, operands[pos], nesting, head, count, path)
            if op == _OP_SELECT:
                path += (_SELECT,)
            elif op == _OP_CALL or op == _OP_ICALL:
                path = ()
        return lines, count, path

    def observes(self, ins: Instruction) -> bool:
        """Whether ``icount`` must be exact before ``ins``: it may fault,
        it calls or ends a function or the run, or, in the recording
        variant, it records a branch event.  A ``LOAD``/``STORE`` does
        not: its bounds check settles the element's count in its fault
        branch (see :meth:`bounds`), and the count is carried on."""
        op = ins[0]
        if op == _OP_BIN:
            return ins[1] in _FAULTING_BINOPS
        if op == _OP_BR:
            return self.recording
        return op in _OBSERVERS

    def event(self, outcome: int) -> List[str]:
        if not self.recording:
            return []
        self.assigned.add("room")
        return [
            f"record({outcome})",
            "record(icount)",
            "room -= 1",
            "if not room:",
            "    flush()",
        ]

    def test(
        self, ins: Instruction, operands: Dict[int, str], br: Instruction
    ) -> Optional[Tuple[str, bool]]:
        """When ``ins`` is a comparison whose result ``br`` branches on,
        the expression to test instead, and whether a successor reads the
        result (so each arm still stores it)."""
        if ins[0] != _OP_BIN or ins[1] not in _TESTS or ins[2] != br[1]:
            return None
        live = self.func.live
        stored = any(live.get(target, 0) >> ins[2] & 1 for target in br[2:4])
        return f"{operands[ins[3]]} {_TESTS[ins[1]]} {operands[ins[4]]}", stored

    def branch(
        self,
        ins: Instruction,
        operands: Dict[int, str],
        test: Optional[Tuple[str, bool]],
        nesting: int,
        head: Optional[int],
        count: int,
        path: Path,
    ) -> List[str]:
        """A ``BR``: record the outcome, and go on with it on the path."""
        event = ins[4] << 1
        taken = self.event(event | 1)
        not_taken = self.event(event)
        condition = operands[ins[1]]
        if test is not None:
            condition, stored = test
            if stored:
                taken.insert(0, f"r{ins[1]} = 1")
                not_taken.insert(0, f"r{ins[1]} = 0")
        taken += self.goto(ins[2], nesting + 1, head, count, path + (event | 1,))
        not_taken += self.goto(ins[3], nesting + 1, head, count, path + (event,))
        return [f"if {condition}:"] + _indent(taken) + ["else:"] + _indent(not_taken)

    def op(
        self,
        ins: Instruction,
        operands: Dict[int, str],
        nesting: int,
        head: Optional[int],
        count: int,
        path: Path,
    ) -> List[str]:
        """The statements of one instruction other than ``BR``, reading
        each register as the text ``operands`` gives for it."""
        op = ins[0]
        if op == _OP_CONST:
            return [f"r{ins[1]} = {ins[2]!r}"]
        if op == _OP_MOV:
            return [f"r{ins[1]} = {operands[ins[2]]}"]
        if op == _OP_BIN:
            return [
                _BIN_STMTS[ins[1]].format(
                    d=ins[2], a=operands[ins[3]], b=operands[ins[4]]
                )
            ]
        if op == _OP_UN:
            return [_UN_STMTS[ins[1]].format(d=ins[2], a=operands[ins[3]])]
        if op == _OP_LOAD:
            address = operands[ins[2]]
            return self.bounds(address, "load from", count) + [
                f"r{ins[1]} = memory[{address}]"
            ]
        if op == _OP_STORE:
            address = operands[ins[1]]
            return self.bounds(address, "store to", count) + [
                f"memory[{address}] = {operands[ins[2]]}"
            ]
        if op == _OP_JMP:
            return self.goto(ins[1], nesting, head, count, path + (_JUMP,))
        if op == _OP_RET:
            value = "0" if ins[1] == -1 else operands[ins[1]]
            return self.leaf(path) + [f"return {value}"]
        if op == _OP_CALL:
            return _DEPTH_CHECK + self.leaf(path + (_DIRECT_CALL,)) + [
                _call(ins[2], f"f{ins[1]}", [operands[a] for a in ins[3]]),
            ]
        if op == _OP_ICALL:
            target = operands[ins[1]]
            self.assigned.update(("indirect_calls", "indirect_returns"))
            return self.leaf(path) + [
                f"if {target} < 0 or {target} >= {len(self.program.functions)}:",
                f"    raise _fault('indirect call to bad target %d' % {target})",
                f"if _arity[{target}] != {len(ins[3])}:",
                f"    raise _arity_error({target}, {len(ins[3])})",
            ] + _DEPTH_CHECK + [
                "indirect_calls += 1",
                _call(
                    ins[2], f"functions[{target}]", [operands[a] for a in ins[3]]
                ),
                "indirect_returns += 1",
            ]
        if op == _OP_SELECT:
            return [
                f"r{ins[1]} = {operands[ins[3]]} if {operands[ins[2]]} "
                f"else {operands[ins[4]]}",
            ]
        if op == _OP_GETC:
            return [f"r{ins[1]} = next(stdin, -1)"]
        if op == _OP_PUTC:
            return [f"putc({operands[ins[1]]} & 255)"]
        if op == _OP_HALT:
            return self.leaf(path) + ["raise _Halt(depth)"]
        raise AssertionError(f"unknown opcode {op}")  # pragma: no cover

    def bounds(self, address: str, kind: str, count: int) -> List[str]:
        """The bounds check of a ``LOAD``/``STORE`` address, decided here
        when the address is a literal.  Its fault settles ``count``."""
        fault = _settle(count) + [
            f"raise _fault('{kind} bad address %d' % {address})"
        ]
        size = self.program.memory_size
        value = _literal(address)
        if value is not None:
            return [] if 0 <= value < size else fault
        return [f"if {address} < 0 or {address} >= {size}:"] + _indent(fault)

    def arm(self, start: int) -> List[str]:
        """The arm for ``start``: the limit check, then the block, looping
        on itself if it can reach its own start."""
        self.arms[start] = []
        self.looped = False
        block = self.func.blocks[start]
        lines = _LIMIT_CHECK + self.block(block, 0, start, 0, ())
        if self.looped:
            return ["while True:"] + _indent(lines)
        return _LIMIT_CHECK + self.block(block, 0, None, 0, ())

    def tree(self, starts: List[int]) -> List[str]:
        """Select the arm for ``pc`` with a binary tree of ``if pc < k``."""
        if len(starts) == 1:
            return self.arms[starts[0]]
        middle = len(starts) // 2
        return (
            [f"if pc < {starts[middle]}:"]
            + _indent(self.tree(starts[:middle]))
            + ["else:"]
            + _indent(self.tree(starts[middle:]))
        )

    def body(self) -> List[str]:
        """The function's body: the limit check at entry, the entry code,
        then the arms."""
        lines = _LIMIT_CHECK + self.goto(0, 0, None, 0, ())
        while self.pending:
            start = self.pending.pop()
            self.arms[start] = self.arm(start)
        if self.single:
            # At most one arm, unless :func:`_write` writes the function again.
            for arm in self.arms.values():
                lines += arm
        elif self.arms:
            lines += ["while True:"] + _indent(self.tree(sorted(self.arms)))
        header = [f"nonlocal {', '.join(sorted(self.assigned))}"]
        if self.func.zeros:
            header.append(" = ".join(f"r{reg}" for reg in self.func.zeros) + " = 0")
        return header + lines


def _write(
    program: LoweredProgram, func: PredecodedFunction, recording: bool
) -> Tuple[_Writer, List[str]]:
    """The writer of ``func``'s generated function, and its body.  A
    function with at most one arm is written without ``pc``, unless
    blocks nested too deep become further arms."""
    writer = _Writer(program, func, recording, single=len(func.arms) <= 1)
    lines = writer.body()
    if len(writer.arms) > 1 and writer.single:
        writer = _Writer(program, func, recording, single=False)
        lines = writer.body()
    return writer, lines


def _body(
    program: LoweredProgram, func: PredecodedFunction, recording: bool
) -> Tuple[List[str], int]:
    """The body of ``func``'s generated function, and its number of arms."""
    writer, lines = _write(program, func, recording)
    return lines, len(writer.arms)


def _function_source(
    predecoded: PredecodedProgram, index: int, recording: bool
) -> str:
    func = predecoded.functions[index]
    writer, body = _write(predecoded.program, func, recording)
    callees = {
        f"f{ins[1]}"
        for block in func.blocks.values()
        for element in block.elements
        for ins in element
        if ins[0] == _OP_CALL
    }
    paths = writer.assigned.difference(_STATE)
    names = [*_STATE, *sorted(callees), *sorted(paths)]
    params = ["depth"] + [f"r{reg}" for reg in range(func.num_params)]
    return "\n".join(
        ["def _scope():", f"    {' = '.join(names)} = None"]
        + [f"    def f{index}({', '.join(params)}):"]
        + ["        " + line for line in body]
        + [f"    return f{index}"]
    )


def _compile_function(
    predecoded: PredecodedProgram, index: int, recording: bool
) -> CodeType:
    """Compile one function's source and return the inner function's code,
    whose free variables the run binds to its cells."""
    program = predecoded.program
    name = predecoded.functions[index].name
    module = compile(
        _function_source(predecoded, index, recording),
        f"<vm:{program.name}:{name}>",
        "exec",
    )
    scope = next(c for c in module.co_consts if isinstance(c, CodeType))
    return next(c for c in scope.co_consts if isinstance(c, CodeType))


def compiled(predecoded: PredecodedProgram, recording: bool) -> List[CodeType]:
    """Per function, the compiled code of one variant: built on first use
    and cached with the analysed form."""
    codes = predecoded.recording if recording else predecoded.plain
    if codes is None:
        codes = [
            _compile_function(predecoded, index, recording)
            for index in range(len(predecoded.functions))
        ]
        if recording:
            predecoded.recording = codes
        else:
            predecoded.plain = codes
    return codes


# -- running -------------------------------------------------------------------


def run_fast(
    predecoded: PredecodedProgram,
    input_data: bytes,
    max_instructions: int,
    max_call_depth: int,
) -> RunResult:
    """Run the plain variant: no monitors."""
    return _call_main(
        predecoded, False, input_data, max_instructions, max_call_depth, ()
    )


def run_monitored(
    predecoded: PredecodedProgram,
    input_data: bytes,
    monitors: Sequence[BranchMonitor],
    max_instructions: int,
    max_call_depth: int,
) -> RunResult:
    """Run the recording variant, replaying every conditional-branch
    outcome to ``monitors`` in chunks and then calling each monitor's
    ``on_run_end`` once."""
    result = _call_main(
        predecoded, True, input_data, max_instructions, max_call_depth, monitors
    )
    for monitor in monitors:
        monitor.on_run_end(result.instructions)
    return result


def _stack_depth() -> int:
    """How many Python frames are active below this call."""
    depth = 0
    frame: Any = sys._getframe(1)
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth


def _drop_past(events: List[int], limit: int) -> None:
    """Drop the buffered events recorded past ``limit`` instructions: a
    run that stops at the limit never reaches them."""
    while events and events[-1] > limit:
        del events[-2:]


def _call_main(
    predecoded: PredecodedProgram,
    recording: bool,
    input_data: bytes,
    max_instructions: int,
    max_call_depth: int,
    monitors: Sequence[BranchMonitor],
) -> RunResult:
    """Bind one variant's functions to a fresh run's cells and call main.

    In the recording variant each ``BR`` appends its event to the chunk
    (see :mod:`repro.vm.monitors`) with the exact executed-instruction
    count the legacy interpreter would report, and every full chunk is
    replayed to the monitors with ``in_monitor`` raised, so a monitor's
    own ``ZeroDivisionError``, ``ValueError`` or ``VMError`` is re-raised
    unchanged instead of being blamed on the guest program.  The tail is
    replayed before the run returns, or before a guest fault propagates.
    The run can go on past the limit until its next check, so when the
    count is over the limit, a flush and the tail drop the events
    recorded past it, deliver the rest and end the run with the limit
    error.

    Each guest call is one Python frame, so the recursion limit is raised
    for the run to cover ``max_call_depth`` guest frames above the
    caller's own, and restored after it.
    """
    program = predecoded.program
    codes = compiled(predecoded, recording)
    depth_limit = max(max_call_depth, 0)
    exceeded = predecoded.namespace["_exceeded"]
    output = bytearray()
    events: List[int] = []
    chunk_events = vm_monitors.CHUNK_EVENTS
    # ``flush`` reads these two through their own cells, not through
    # ``cells``: that dict holds ``flush`` itself, so a run would leave a
    # reference cycle behind.
    icount = CellType(0)
    room = CellType(chunk_events)
    in_monitor = False

    def flush() -> None:
        nonlocal in_monitor
        over = icount.cell_contents > max_instructions
        if over:
            _drop_past(events, max_instructions)
        in_monitor = True
        deliver(monitors, events)
        in_monitor = False
        if over:
            raise exceeded(max_instructions)
        room.cell_contents = chunk_events

    functions: List[Any] = []
    cells = {
        "icount": icount,
        "limit": CellType(max_instructions),
        "memory": CellType(program.initial_memory()),
        "indirect_calls": CellType(0),
        "indirect_returns": CellType(0),
        "stdin": CellType(iter(input_data)),
        "putc": CellType(output.append),
        "functions": CellType(functions),
        "record": CellType(events.append),
        "room": room,
        "flush": CellType(flush),
    }
    function_cells = [CellType() for _ in codes]
    cells.update((f"f{index}", cell) for index, cell in enumerate(function_cells))
    # Every other free name is a path counter.
    cells.update(
        (name, CellType(0))
        for code in codes
        for name in code.co_freevars
        if name not in cells
    )
    namespace = predecoded.namespace
    for code in codes:
        closure = tuple(cells[name] for name in code.co_freevars)
        functions.append(FunctionType(code, namespace, code.co_name, None, closure))
    for cell, function in zip(function_cells, functions):
        cell.cell_contents = function

    exit_code: Optional[int] = None
    fault: Optional[VMError] = None
    recursion_limit = sys.getrecursionlimit()
    needed = _stack_depth() + depth_limit + _RECURSION_HEADROOM
    if needed > recursion_limit:
        sys.setrecursionlimit(needed)
    #: Guest frames a ``halt`` left open, which never returned.
    open_frames = 0
    try:
        exit_code = functions[predecoded.main_index](depth_limit)
    except _Halt as halt:
        exit_code = 0
        open_frames = depth_limit - halt.args[0]
    except ZeroDivisionError:
        if in_monitor:
            raise
        fault = VMError(f"{program.name}: division by zero")
    except ValueError:
        if in_monitor:
            raise
        fault = VMError(f"{program.name}: negative shift count")
    except VMError as error:
        if in_monitor:
            raise
        fault = error
    finally:
        if needed > recursion_limit:
            sys.setrecursionlimit(recursion_limit)
        # The functions reach each other through these cells; clearing
        # them breaks the cycle that would keep ``memory`` alive.
        for cell in function_cells:
            cell.cell_contents = None
        functions.clear()
    # The limit is checked only where control can come back, so the run
    # may have ended past it: then it ends with the limit instead.
    if icount.cell_contents > max_instructions:
        fault = exceeded(max_instructions)
        _drop_past(events, max_instructions)
    if events:
        deliver(monitors, events)
    if fault is not None:
        raise fault

    executed, taken, control = _derived_counts(predecoded, cells, open_frames)
    return RunResult(
        program=program.name,
        instructions=icount.cell_contents,
        branch_table=list(program.branch_table),
        branch_exec=executed,
        branch_taken=taken,
        events=control,
        output=bytes(output),
        exit_code=exit_code,
    )


def _derived_counts(
    predecoded: PredecodedProgram, cells: Dict[str, CellType], open_frames: int
) -> Tuple[List[int], List[int], ControlEvents]:
    """A finished run's ``branch_exec``, ``branch_taken`` and control
    events, from how often each path counter's path ran.  Every direct
    call returned but those whose frames a ``halt`` left open: the open
    frames less the open indirect ones, which count their own returns."""
    num_branches = len(predecoded.program.branch_table)
    executed = [0] * num_branches
    taken = [0] * num_branches
    kinds = {_JUMP: 0, _SELECT: 0, _DIRECT_CALL: 0}
    for events, name in predecoded.paths.items():
        cell = cells.get(name)
        times = 0 if cell is None else cell.cell_contents
        if not times:
            continue
        for event in events:
            if event < 0:
                kinds[event] += times
            else:
                executed[event >> 1] += times
                if event & 1:
                    taken[event >> 1] += times
    indirect_calls = cells["indirect_calls"].cell_contents
    indirect_returns = cells["indirect_returns"].cell_contents
    open_direct = open_frames - (indirect_calls - indirect_returns)
    return executed, taken, ControlEvents(
        direct_calls=kinds[_DIRECT_CALL],
        direct_returns=kinds[_DIRECT_CALL] - open_direct,
        indirect_calls=indirect_calls,
        indirect_returns=indirect_returns,
        jumps=kinds[_JUMP],
        selects=kinds[_SELECT],
    )
