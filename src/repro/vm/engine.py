"""The counting VM's engine: predecoding, fusion and superblocks.

The original interpreter (kept as the oracle in ``tests/legacy_vm.py``)
re-derives everything per dispatch: it fetches a flat tuple, compares its
opcode down an ``elif`` chain, and indexes operand registers and the
BIN/UN function tables on every executed operation.  For a simulator
whose entire job is executing hundreds of millions of RISC-ops, that
per-op bookkeeping dominates.

This module *predecodes* a :class:`~repro.ir.lower.LoweredProgram` once
into a form the dispatch loop can execute with far less per-op work:

* **Operand pre-binding.**  Unfused ``BIN``/``UN`` tuples carry the bound
  Python function (``BINOP_FUNCS[subop]``) instead of the subop index,
  and ``CALL``/``ICALL`` tuples carry a precomputed zero-padding tuple so
  callee frames are built with a list comprehension instead of an
  index-assign loop.
* **Superinstruction fusion.**  Maximal straight-line runs of
  ``CONST``/``MOV``/``BIN``/``UN``/``LOAD``/``STORE`` that no branch can
  jump into are compiled (via ``exec``) into one specialized Python
  function executing the whole run — one dispatch, one instruction-limit
  check, and zero opcode comparisons for the entire run.  Comparisons,
  bit-ops, and wrapping arithmetic become native Python expressions
  (``regs[5] = regs[3] + regs[4]``) rather than calls.
* **Terminator merging.**  A run followed by its block's ``BR``, ``JMP``,
  ``RET``, or ``CALL`` absorbs the terminator into the same
  superinstruction: the generated function updates the branch counters
  with constant indices and returns the (decoded) successor pc directly,
  so a typical loop body costs one dispatch per iteration instead of one
  per instruction.
* **Branch-target remapping.**  Fusion collapses pcs, so ``BR``/``JMP``
  targets are remapped to the decoded index space at decode time.  Runs
  are broken at every jump target, so a target pc always starts a decoded
  element (call-return sites always follow a ``CALL``/``ICALL`` element,
  so they also stay addressable).
* **Superblocks** (unmonitored runs only).  Each fused element ending in
  ``BR`` or ``JMP``, or in no terminator, is chained with its likely
  successors (see :func:`superblocks`) into one more generated function
  with side exits, so a hot path costs one dispatch instead of one per
  block.

The decoded form is cached on :attr:`LoweredProgram.predecoded`, and the
superblocks with it on first use, so repeated runs of one compiled
program (across datasets, within a worker process) pay each build
exactly once.

One dispatch loop executes the decoded form.  When monitors are attached,
its two ``BR`` arms append every conditional-branch execution to a
bounded buffer (see :mod:`repro.vm.monitors`), and each full chunk is
replayed to the monitors with the ``in_monitor`` flag raised, so a buggy
monitor's ``IndexError``/``ZeroDivisionError`` propagates as-is instead of
being mis-attributed to the guest program.  Two entry points feed it:
:func:`run_fast` runs the superblock code with no monitors, and
:func:`run_monitored` runs the decoded code without superblocks, with
monitors attached, and then fires each monitor's ``on_run_end``.  Both
produce bit-identical :class:`RunResult`\\ s to the legacy interpreter;
the differential harness in ``tests/test_vm_engine.py`` holds them to
that.
"""
from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import repro.vm.monitors as vm_monitors
from repro.ir.lower import LoweredFunction, LoweredProgram
from repro.ir.opcodes import (
    BINOP_FUNCS,
    UNOP_FUNCS,
    BinOp,
    Opcode,
    UnOp,
    _c_div,
    _c_mod,
)
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

#: Decoded-only opcodes (continue past Opcode.HALT).
OP_FUSED = _OP_HALT + 1        #: plain fused run: fn(...)
OP_FUSED_BR = _OP_HALT + 2     #: run + BR: pc = fn(...) (counters inside)
OP_FUSED_JMP = _OP_HALT + 3    #: run + JMP: pc = fn(...)
OP_FUSED_RET = _OP_HALT + 4    #: run + RET: value = fn(...)
OP_FUSED_CALL = _OP_HALT + 5   #: run + CALL: fn(...) then the call transfer
OP_SUPERBLOCK = _OP_HALT + 6   #: chained runs: pc, n, j = fn(...), or base

#: Opcodes eligible for superinstruction fusion: straight-line register and
#: memory traffic with no control flow, no I/O, and no event counters.
FUSIBLE_OPS = frozenset(
    {_OP_CONST, _OP_MOV, _OP_BIN, _OP_UN, _OP_LOAD, _OP_STORE}
)

#: Block terminators a run can absorb into its superinstruction.
_MERGEABLE_TERMINATORS = frozenset({_OP_BR, _OP_JMP, _OP_RET, _OP_CALL})

#: Minimum run length worth fusing *without* a merged terminator; a 1-op
#: "run" would just trade an inline dispatch arm for a Python call.  With a
#: terminator merged, even a 1-op run halves its dispatch count.
MIN_FUSE_RUN = 2

#: Most fused elements one superblock chains together.  Every superblock is
#: one more generated function holding copies of its elements' bodies, so
#: this bounds the code (and memory) superblocks add.
SUPERBLOCK_BLOCKS = 4

#: Terminators a superblock can continue past (and plain runs, with none).
_CHAINED_TERMINATORS = frozenset({_OP_BR, _OP_JMP})

# -- fused-run code generation -------------------------------------------------

#: Statement templates per BinOp: inline native expressions where Python
#: semantics match the IR (everything except C-style DIV/MOD).
_BIN_STMTS = {
    int(BinOp.ADD): "regs[{d}] = regs[{a}] + regs[{b}]",
    int(BinOp.SUB): "regs[{d}] = regs[{a}] - regs[{b}]",
    int(BinOp.MUL): "regs[{d}] = regs[{a}] * regs[{b}]",
    int(BinOp.DIV): "regs[{d}] = _div(regs[{a}], regs[{b}])",
    int(BinOp.MOD): "regs[{d}] = _mod(regs[{a}], regs[{b}])",
    int(BinOp.AND): "regs[{d}] = regs[{a}] & regs[{b}]",
    int(BinOp.OR): "regs[{d}] = regs[{a}] | regs[{b}]",
    int(BinOp.XOR): "regs[{d}] = regs[{a}] ^ regs[{b}]",
    int(BinOp.SHL): "regs[{d}] = regs[{a}] << regs[{b}]",
    int(BinOp.SHR): "regs[{d}] = regs[{a}] >> regs[{b}]",
    int(BinOp.EQ): "regs[{d}] = 1 if regs[{a}] == regs[{b}] else 0",
    int(BinOp.NE): "regs[{d}] = 1 if regs[{a}] != regs[{b}] else 0",
    int(BinOp.LT): "regs[{d}] = 1 if regs[{a}] < regs[{b}] else 0",
    int(BinOp.LE): "regs[{d}] = 1 if regs[{a}] <= regs[{b}] else 0",
    int(BinOp.GT): "regs[{d}] = 1 if regs[{a}] > regs[{b}] else 0",
    int(BinOp.GE): "regs[{d}] = 1 if regs[{a}] >= regs[{b}] else 0",
}

_UN_STMTS = {
    int(UnOp.NEG): "regs[{d}] = -regs[{a}]",
    int(UnOp.NOT): "regs[{d}] = 1 if regs[{a}] == 0 else 0",
    int(UnOp.BNOT): "regs[{d}] = ~regs[{a}]",
}


def _fused_statements(ins: Tuple[Any, ...], mem_size: int) -> List[str]:
    """The Python statement(s) implementing one fusible instruction."""
    op = ins[0]
    if op == _OP_CONST:
        return [f"regs[{ins[1]}] = {ins[2]}"]
    if op == _OP_MOV:
        return [f"regs[{ins[1]}] = regs[{ins[2]}]"]
    if op == _OP_BIN:
        return [_BIN_STMTS[ins[1]].format(d=ins[2], a=ins[3], b=ins[4])]
    if op == _OP_UN:
        return [_UN_STMTS[ins[1]].format(d=ins[2], a=ins[3])]
    if op == _OP_LOAD:
        return [
            f"_t = regs[{ins[2]}]",
            f"if _t < 0 or _t >= {mem_size}:",
            "    raise VMError(_name + ': load from bad address %d' % _t)",
            f"regs[{ins[1]}] = memory[_t]",
        ]
    if op == _OP_STORE:
        return [
            f"_t = regs[{ins[1]}]",
            f"if _t < 0 or _t >= {mem_size}:",
            "    raise VMError(_name + ': store to bad address %d' % _t)",
            f"memory[_t] = regs[{ins[2]}]",
        ]
    raise AssertionError(f"unfusible opcode {op}")  # pragma: no cover


def _terminator_statements(
    term: Tuple[Any, ...], new_pc: Dict[int, int]
) -> List[str]:
    """The trailing statements for a terminator merged into a run."""
    op = term[0]
    if op == _OP_BR:
        return [
            f"bexec[{term[4]}] += 1",
            f"if regs[{term[1]}] != 0:",
            f"    btaken[{term[4]}] += 1",
            f"    return {new_pc[term[2]]}",
            f"return {new_pc[term[3]]}",
        ]
    if op == _OP_JMP:
        return [f"return {new_pc[term[1]]}"]
    if op == _OP_RET:
        return ["return 0" if term[1] == -1 else f"return regs[{term[1]}]"]
    if op == _OP_CALL:
        return []  # the call transfer itself stays in the dispatch arm
    raise AssertionError(f"unmergeable terminator {op}")  # pragma: no cover


# -- predecoding ---------------------------------------------------------------


#: One decoded element's source: (first original pc, fused ops or None for
#: a plain instruction, absorbed terminator or None).
Segment = Tuple[int, Optional[List[Tuple[Any, ...]]], Optional[Tuple[Any, ...]]]


class PredecodedFunction:
    """One function in decoded, fusion-collapsed form."""

    __slots__ = ("name", "num_params", "num_regs", "code", "fused_ops", "segments")

    def __init__(
        self,
        name: str,
        num_params: int,
        num_regs: int,
        code: List[Tuple[Any, ...]],
        fused_ops: int,
        segments: List[Segment],
    ) -> None:
        self.name = name
        self.num_params = num_params
        self.num_regs = num_regs
        self.code = code
        #: How many original instructions live inside fused superinstructions
        #: (decode statistics; used by tests and the benchmark report).
        self.fused_ops = fused_ops
        #: Where each element of ``code`` came from (superblocks chain them).
        self.segments = segments


class PredecodedProgram:
    """A whole program in decoded form, sharing the source program's
    memory image, branch table, and function indexing."""

    __slots__ = ("program", "functions", "main_index", "superblock_codes")

    def __init__(
        self,
        program: LoweredProgram,
        functions: List[PredecodedFunction],
        main_index: int,
    ) -> None:
        self.program = program
        self.functions = functions
        self.main_index = main_index
        #: Per function, ``code`` with superblock heads; see
        #: :func:`superblocks`, which builds it on the first unmonitored run.
        self.superblock_codes: Optional[List[List[Tuple[Any, ...]]]] = None


def _compile_functions(
    lines: List[str], count: int, prefix: str, label: str, program: LoweredProgram
) -> List[Any]:
    """Exec ``lines`` (defining ``prefix0`` .. ``prefix{count-1}``) once."""
    if not count:
        return []
    namespace: Dict[str, Any] = {
        "VMError": VMError,
        "_div": _c_div,
        "_mod": _c_mod,
        "_name": program.name,
    }
    exec(  # noqa: S102 - generated from the validated lowered form only
        compile("\n".join(lines), f"<{label}:{program.name}>", "exec"),
        namespace,
    )
    return [namespace[f"{prefix}{index}"] for index in range(count)]


def _decode_call(
    ins: Tuple[Any, ...], program: LoweredProgram
) -> Tuple[Any, ...]:
    """Pre-bind a CALL's callee frame shape: (op, func_index, dst, args,
    zeros) where ``zeros`` pads the arg registers up to num_regs."""
    callee = program.functions[ins[1]]
    args = tuple(ins[3])
    return (_OP_CALL, ins[1], ins[2], args, (0,) * (callee.num_regs - len(args)))


def _predecode_function(
    func: LoweredFunction, program: LoweredProgram
) -> PredecodedFunction:
    code = func.code
    length = len(code)
    targets = func.jump_targets

    # Segment the code.  Each segment becomes exactly one decoded element:
    # either a fused run (ops, optionally an absorbed terminator) or a
    # single plain instruction (ops None).  Jump targets always start a
    # segment, so every reachable target stays addressable after decoding.
    segments: List[Segment] = []
    pc = 0
    while pc < length:
        if code[pc][0] in FUSIBLE_OPS:
            end = pc + 1
            while (
                end < length
                and code[end][0] in FUSIBLE_OPS
                and end not in targets
            ):
                end += 1
            ops = list(code[pc:end])
            term: Optional[Tuple[Any, ...]] = None
            if (
                end < length
                and end not in targets
                and code[end][0] in _MERGEABLE_TERMINATORS
            ):
                term = code[end]
                end += 1
            if term is not None or len(ops) >= MIN_FUSE_RUN:
                segments.append((pc, ops, term))
                pc = end
                continue
        segments.append((pc, None, None))
        pc += 1

    new_pc = {old: index for index, (old, _, _) in enumerate(segments)}

    # Compile every fused segment of the function in a single exec.
    lines: List[str] = []
    fused_count = 0
    for old, ops, term in segments:
        if ops is None:
            continue
        lines.append(f"def _f{fused_count}(regs, memory, bexec, btaken):")
        for ins in ops:
            for stmt in _fused_statements(ins, program.memory_size):
                lines.append("    " + stmt)
        if term is not None:
            for stmt in _terminator_statements(term, new_pc):
                lines.append("    " + stmt)
        fused_count += 1
    fns = _compile_functions(
        lines, fused_count, "_f", f"fused:{func.name}", program
    )

    decoded: List[Tuple[Any, ...]] = []
    run_index = 0
    fused_ops = 0
    for old, ops, term in segments:
        if ops is not None:
            fn = fns[run_index]
            run_index += 1
            count = len(ops) + (1 if term is not None else 0)
            fused_ops += count
            if term is None:
                decoded.append((OP_FUSED, fn, count))
            elif term[0] == _OP_BR:
                # Ends with the branch's not-taken and taken outcomes, so
                # a monitored run records one without arithmetic.
                outcome = term[4] << 1
                decoded.append(
                    (OP_FUSED_BR, fn, count, term[1], outcome, outcome | 1)
                )
            elif term[0] == _OP_JMP:
                decoded.append((OP_FUSED_JMP, fn, count))
            elif term[0] == _OP_RET:
                decoded.append((OP_FUSED_RET, fn, count))
            else:  # CALL
                call = _decode_call(term, program)
                decoded.append(
                    (OP_FUSED_CALL, fn, count) + call[1:]
                )
            continue
        ins = code[old]
        op = ins[0]
        if op == _OP_BIN:
            decoded.append((_OP_BIN, BINOP_FUNCS[ins[1]], ins[2], ins[3], ins[4]))
        elif op == _OP_UN:
            decoded.append((_OP_UN, UNOP_FUNCS[ins[1]], ins[2], ins[3]))
        elif op == _OP_BR:
            decoded.append(
                (_OP_BR, ins[1], new_pc[ins[2]], new_pc[ins[3]], ins[4])
            )
        elif op == _OP_JMP:
            decoded.append((_OP_JMP, new_pc[ins[1]]))
        elif op == _OP_CALL:
            decoded.append(_decode_call(ins, program))
        elif op == _OP_ICALL:
            decoded.append((_OP_ICALL, ins[1], ins[2], tuple(ins[3])))
        else:
            decoded.append(ins)
    return PredecodedFunction(
        name=func.name,
        num_params=func.num_params,
        num_regs=func.num_regs,
        code=decoded,
        fused_ops=fused_ops,
        segments=segments,
    )


def predecode(program: LoweredProgram) -> PredecodedProgram:
    """The decoded form of ``program``, built once and cached on it."""
    cached = program.predecoded
    if cached is not None:
        return cached  # type: ignore[no-any-return]
    decoded = PredecodedProgram(
        program=program,
        functions=[
            _predecode_function(func, program) for func in program.functions
        ],
        main_index=program.main_index,
    )
    program.predecoded = decoded
    return decoded


# -- superblocks ---------------------------------------------------------------


def _chains_on(segment: Segment) -> bool:
    """Whether a superblock may hold this element (and go on past it)."""
    _, ops, term = segment
    return ops is not None and (term is None or term[0] in _CHAINED_TERMINATORS)


def _takes_back_edge(segment: Segment) -> bool:
    """A BR's likely direction: taken iff the target is at or before it."""
    old, ops, term = segment
    assert ops is not None and term is not None
    return bool(term[2] <= old + len(ops))


def _likely_successor(
    segments: List[Segment], new_pc: Dict[int, int], index: int
) -> int:
    """The decoded index a chainable element most likely continues at."""
    _, _, term = segments[index]
    if term is None:
        return index + 1
    if term[0] == _OP_JMP:
        return new_pc[term[1]]
    return new_pc[term[2] if _takes_back_edge(segments[index]) else term[3]]


def _superblock_lines(
    name: str,
    chain: List[int],
    segments: List[Segment],
    new_pc: Dict[int, int],
    mem_size: int,
) -> Tuple[List[str], int]:
    """One superblock function and its longest path's instruction count.

    Every exit returns the constant ``(next pc, instructions, jumps)``
    executed up to it; an off-path branch outcome counts exactly as the
    element's own function would, then exits.
    """
    lines = [f"def {name}(regs, memory, bexec, btaken):"]
    count = jumps = 0
    for position, index in enumerate(chain):
        _, ops, term = segments[index]
        assert ops is not None
        for ins in ops:
            lines.extend("    " + stmt for stmt in _fused_statements(ins, mem_size))
        count += len(ops)
        last = position == len(chain) - 1
        if term is None:
            if last:
                lines.append(f"    return ({index + 1}, {count}, {jumps})")
            continue
        count += 1
        if term[0] == _OP_JMP:
            jumps += 1
            if last:
                lines.append(f"    return ({new_pc[term[1]]}, {count}, {jumps})")
            continue
        bidx, cond = term[4], term[1]
        taken = f"({new_pc[term[2]]}, {count}, {jumps})"
        not_taken = f"({new_pc[term[3]]}, {count}, {jumps})"
        lines.append(f"    bexec[{bidx}] += 1")
        if last:
            lines += [
                f"    if regs[{cond}]:",
                f"        btaken[{bidx}] += 1",
                f"        return {taken}",
                f"    return {not_taken}",
            ]
        elif _takes_back_edge(segments[index]):
            lines += [
                f"    if not regs[{cond}]:",
                f"        return {not_taken}",
                f"    btaken[{bidx}] += 1",
            ]
        else:
            lines += [
                f"    if regs[{cond}]:",
                f"        btaken[{bidx}] += 1",
                f"        return {taken}",
            ]
    return lines, count


def _superblock_code(
    func: PredecodedFunction, program: LoweredProgram
) -> List[Tuple[Any, ...]]:
    """``func.code`` with every chainable element whose likely successor
    is chainable too replaced by an ``OP_SUPERBLOCK`` head."""
    segments = func.segments
    new_pc = {old: index for index, (old, _, _) in enumerate(segments)}
    chainable = [_chains_on(segment) for segment in segments]
    lines: List[str] = []
    heads: List[Tuple[int, int]] = []
    for index, head_chains in enumerate(chainable):
        if not head_chains:
            continue
        chain = [index]
        while len(chain) < SUPERBLOCK_BLOCKS:
            successor = _likely_successor(segments, new_pc, chain[-1])
            if (
                successor >= len(segments)
                or successor in chain
                or not chainable[successor]
            ):
                break
            chain.append(successor)
        if len(chain) < 2:
            continue
        body, count = _superblock_lines(
            f"_s{len(heads)}", chain, segments, new_pc, program.memory_size
        )
        lines += body
        heads.append((index, count))
    fns = _compile_functions(
        lines, len(heads), "_s", f"superblock:{func.name}", program
    )
    code = list(func.code)
    for fn, (index, count) in zip(fns, heads):
        code[index] = (OP_SUPERBLOCK, fn, count, code[index])
    return code


def superblocks(predecoded: PredecodedProgram) -> List[List[Tuple[Any, ...]]]:
    """Per function, the decoded code :func:`run_fast` executes: each
    superblock head carries its chain's function, its longest path's
    instruction count and the element it replaces.  Built on first use
    and cached with the decoded form."""
    codes = predecoded.superblock_codes
    if codes is None:
        codes = predecoded.superblock_codes = [
            _superblock_code(func, predecoded.program)
            for func in predecoded.functions
        ]
    return codes


# -- execution loop ------------------------------------------------------------


def run_fast(
    predecoded: PredecodedProgram,
    input_data: bytes,
    max_instructions: int,
    max_call_depth: int,
) -> RunResult:
    """Run the decoded form, with superblocks and no monitors."""
    return _run(
        predecoded, superblocks(predecoded), input_data,
        max_instructions, max_call_depth, (),
    )


def run_monitored(
    predecoded: PredecodedProgram,
    input_data: bytes,
    monitors: Sequence[BranchMonitor],
    max_instructions: int,
    max_call_depth: int,
) -> RunResult:
    """Run the decoded form, replaying every conditional-branch outcome to
    ``monitors`` in chunks and then calling each monitor's ``on_run_end``
    once."""
    codes = [func.code for func in predecoded.functions]
    result = _run(
        predecoded, codes, input_data, max_instructions, max_call_depth, monitors
    )
    for monitor in monitors:
        monitor.on_run_end(result.instructions)
    return result


def _run(
    predecoded: PredecodedProgram,
    codes: List[List[Tuple[Any, ...]]],
    input_data: bytes,
    max_instructions: int,
    max_call_depth: int,
    monitors: Sequence[BranchMonitor],
) -> RunResult:
    """The one dispatch loop over the decoded form, ``codes`` per function.

    An ``OP_SUPERBLOCK`` head runs its chain only when the chain's longest
    path fits under the instruction limit, and otherwise falls back to
    the element it replaced, so the limit trips at the same element.
    With ``monitors``, both ``BR`` arms append each event to the chunk
    (see :mod:`repro.vm.monitors`) with the exact executed-instruction
    count the legacy interpreter would report, and every full chunk is
    replayed to the monitors with ``in_monitor`` raised, so a monitor's
    own ``IndexError``/``ZeroDivisionError`` is re-raised unchanged
    instead of being blamed on the guest program.  The tail is replayed
    before the run returns, or before a guest fault propagates.
    """
    program = predecoded.program
    functions = predecoded.functions
    main = functions[predecoded.main_index]

    memory = list(program.memory_init)
    mem_size = len(memory)
    num_branches = len(program.branch_table)
    branch_exec = [0] * num_branches
    branch_taken = [0] * num_branches
    output = bytearray()
    in_pos = 0
    in_len = len(input_data)

    direct_calls = direct_returns = 0
    indirect_calls = indirect_returns = 0
    jumps = selects = 0
    icount = 0
    limit = max_instructions
    depth_limit = max_call_depth

    regs = [0] * main.num_regs
    code = codes[predecoded.main_index]
    pc = 0
    stack: List[Tuple[Any, ...]] = []
    exit_code: Optional[int] = None
    in_monitor = False
    fault: Optional[VMError] = None

    recording = bool(monitors)
    events: List[int] = []
    chunk_events = room = vm_monitors.CHUNK_EVENTS

    try:
        while True:
            ins = code[pc]
            pc += 1
            op = ins[0]
            if op == OP_SUPERBLOCK:
                if icount + ins[2] <= limit:
                    pc, count, taken_jumps = ins[1](
                        regs, memory, branch_exec, branch_taken
                    )
                    icount += count
                    jumps += taken_jumps
                    continue
                ins = ins[3]
                op = ins[0]
            if op == OP_FUSED_BR:
                icount += ins[2]
                if icount > limit:
                    raise InstructionLimitExceeded(
                        f"{program.name}: exceeded {limit} instructions"
                    )
                pc = ins[1](regs, memory, branch_exec, branch_taken)
                if recording:
                    # The run never writes past the branch read, so the
                    # condition register still holds the branched-on value.
                    events.append(ins[5] if regs[ins[3]] else ins[4])
                    events.append(icount)
                    room -= 1
                    if not room:
                        in_monitor = True
                        deliver(monitors, events)
                        in_monitor = False
                        room = chunk_events
                continue
            if op == OP_FUSED:
                icount += ins[2]
                if icount > limit:
                    raise InstructionLimitExceeded(
                        f"{program.name}: exceeded {limit} instructions"
                    )
                ins[1](regs, memory, branch_exec, branch_taken)
                continue
            if op == OP_FUSED_CALL:
                icount += ins[2]
                if icount > limit:
                    raise InstructionLimitExceeded(
                        f"{program.name}: exceeded {limit} instructions"
                    )
                ins[1](regs, memory, branch_exec, branch_taken)
                new_regs = [regs[src] for src in ins[5]]
                new_regs += ins[6]
                if len(stack) >= depth_limit:
                    raise VMError(f"{program.name}: call depth limit exceeded")
                stack.append((code, regs, pc, ins[4], False))
                code = codes[ins[3]]
                regs = new_regs
                pc = 0
                direct_calls += 1
                continue
            if op == OP_FUSED_RET:
                icount += ins[2]
                if icount > limit:
                    raise InstructionLimitExceeded(
                        f"{program.name}: exceeded {limit} instructions"
                    )
                value = ins[1](regs, memory, branch_exec, branch_taken)
                if not stack:
                    exit_code = value
                    break
                code, regs, pc, dst, via_indirect = stack.pop()
                if via_indirect:
                    indirect_returns += 1
                else:
                    direct_returns += 1
                if dst != -1:
                    regs[dst] = value
                continue
            if op == OP_FUSED_JMP:
                icount += ins[2]
                if icount > limit:
                    raise InstructionLimitExceeded(
                        f"{program.name}: exceeded {limit} instructions"
                    )
                pc = ins[1](regs, memory, branch_exec, branch_taken)
                jumps += 1
                continue
            icount += 1
            if icount > limit:
                raise InstructionLimitExceeded(
                    f"{program.name}: exceeded {limit} instructions"
                )
            if op == _OP_BR:
                bidx = ins[4]
                branch_exec[bidx] += 1
                if regs[ins[1]] != 0:
                    branch_taken[bidx] += 1
                    pc = ins[2]
                else:
                    pc = ins[3]
                if recording:
                    events.append(bidx << 1 | (regs[ins[1]] != 0))
                    events.append(icount)
                    room -= 1
                    if not room:
                        in_monitor = True
                        deliver(monitors, events)
                        in_monitor = False
                        room = chunk_events
            elif op == _OP_BIN:
                regs[ins[2]] = ins[1](regs[ins[3]], regs[ins[4]])
            elif op == _OP_LOAD:
                addr = regs[ins[2]]
                if addr < 0 or addr >= mem_size:
                    raise VMError(
                        f"{program.name}: load from bad address {addr}"
                    )
                regs[ins[1]] = memory[addr]
            elif op == _OP_CONST:
                regs[ins[1]] = ins[2]
            elif op == _OP_STORE:
                addr = regs[ins[1]]
                if addr < 0 or addr >= mem_size:
                    raise VMError(
                        f"{program.name}: store to bad address {addr}"
                    )
                memory[addr] = regs[ins[2]]
            elif op == _OP_MOV:
                regs[ins[1]] = regs[ins[2]]
            elif op == _OP_JMP:
                pc = ins[1]
                jumps += 1
            elif op == _OP_CALL:
                new_regs = [regs[src] for src in ins[3]]
                new_regs += ins[4]
                if len(stack) >= depth_limit:
                    raise VMError(f"{program.name}: call depth limit exceeded")
                stack.append((code, regs, pc, ins[2], False))
                code = codes[ins[1]]
                regs = new_regs
                pc = 0
                direct_calls += 1
            elif op == _OP_RET:
                value = 0 if ins[1] == -1 else regs[ins[1]]
                if not stack:
                    exit_code = value
                    break
                code, regs, pc, dst, via_indirect = stack.pop()
                if via_indirect:
                    indirect_returns += 1
                else:
                    direct_returns += 1
                if dst != -1:
                    regs[dst] = value
            elif op == _OP_SELECT:
                regs[ins[1]] = regs[ins[3]] if regs[ins[2]] != 0 else regs[ins[4]]
                selects += 1
            elif op == _OP_UN:
                regs[ins[2]] = ins[1](regs[ins[3]])
            elif op == _OP_GETC:
                if in_pos < in_len:
                    regs[ins[1]] = input_data[in_pos]
                    in_pos += 1
                else:
                    regs[ins[1]] = -1
            elif op == _OP_PUTC:
                output.append(regs[ins[1]] & 0xFF)
            elif op == _OP_ICALL:
                target = regs[ins[1]]
                if target < 0 or target >= len(functions):
                    raise VMError(
                        f"{program.name}: indirect call to bad target {target}"
                    )
                callee = functions[target]
                if len(ins[3]) != callee.num_params:
                    raise VMError(
                        f"{program.name}: indirect call to {callee.name} with "
                        f"{len(ins[3])} args, expects {callee.num_params}"
                    )
                new_regs = [regs[src] for src in ins[3]]
                new_regs += [0] * (callee.num_regs - len(new_regs))
                if len(stack) >= depth_limit:
                    raise VMError(f"{program.name}: call depth limit exceeded")
                stack.append((code, regs, pc, ins[2], True))
                code = codes[target]
                regs = new_regs
                pc = 0
                indirect_calls += 1
            elif op == _OP_HALT:
                exit_code = 0
                break
            else:  # pragma: no cover - predecode emits only known opcodes
                raise VMError(f"{program.name}: unknown opcode {op}")
    except ZeroDivisionError:
        if in_monitor:
            raise
        fault = VMError(f"{program.name}: division by zero")
    except IndexError:
        if in_monitor:
            raise
        fault = VMError(
            f"{program.name}: bad register or code reference at pc {pc - 1}"
        )
    except VMError as error:
        if in_monitor:
            raise
        fault = error
    if events:
        deliver(monitors, events)
    if fault is not None:
        raise fault

    control = ControlEvents(
        direct_calls=direct_calls,
        direct_returns=direct_returns,
        indirect_calls=indirect_calls,
        indirect_returns=indirect_returns,
        jumps=jumps,
        selects=selects,
    )
    return RunResult(
        program=program.name,
        instructions=icount,
        branch_table=list(program.branch_table),
        branch_exec=branch_exec,
        branch_taken=branch_taken,
        events=control,
        output=bytes(output),
        exit_code=exit_code,
    )
