"""The counting virtual machine (the reproduction's MFPixie).

Executes a :class:`~repro.ir.lower.LoweredProgram`, counting every executed
RISC-level operation, every conditional-branch outcome (per static branch),
and every other control-transfer event.  Execution starts at ``main`` (which
takes no arguments); the program ends when ``main`` returns or a ``halt``
executes, and ``main``'s return value is the exit code.

Two execution engines share this entry point:

* ``engine="fast"`` (the default) predecodes the program once — operand
  pre-binding plus basic-block superinstruction fusion, see
  :mod:`repro.vm.engine` — and runs the engine's one dispatch loop,
  entered through ``run_fast`` or, when branch observers are attached,
  ``run_monitored``.
* ``engine="legacy"`` is the original dispatch loop over the flat
  instruction tuples, kept as the differential-testing oracle and
  benchmarking baseline.

Both engines produce bit-identical :class:`RunResult`\\ s (instructions,
per-branch exec/taken counts, control events, output, exit code); the
differential harness in ``tests/test_vm_engine.py`` enforces that.
"""
from __future__ import annotations

from typing import List, Optional, Sequence

import repro.vm.monitors as vm_monitors
from repro.ir.lower import LoweredProgram
from repro.ir.opcodes import BINOP_FUNCS, UNOP_FUNCS, Opcode
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

#: Default per-run instruction budget: large enough for every workload,
#: small enough to catch runaway programs in seconds.
DEFAULT_MAX_INSTRUCTIONS = 200_000_000

#: Default call-depth limit (catches unbounded recursion).
DEFAULT_MAX_CALL_DEPTH = 10_000

#: Valid values for the ``engine`` selector.
ENGINES = ("fast", "legacy")


class Machine:
    """Executes lowered programs and collects :class:`RunResult` counts."""

    def __init__(
        self,
        max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
        max_call_depth: int = DEFAULT_MAX_CALL_DEPTH,
        engine: str = "fast",
    ) -> None:
        if engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
        self.max_instructions = max_instructions
        self.max_call_depth = max_call_depth
        self.engine = engine

    def run(
        self,
        program: LoweredProgram,
        input_data: bytes = b"",
        monitors: Sequence[BranchMonitor] = (),
    ) -> RunResult:
        """Run ``program`` over ``input_data`` and return the measured counts."""
        main = program.functions[program.main_index]
        if main.num_params != 0:
            raise VMError("main must take no parameters")
        for monitor in monitors:
            monitor.on_run_start(len(program.branch_table))

        if self.engine == "fast":
            from repro.vm.engine import predecode, run_fast, run_monitored

            decoded = predecode(program)
            if monitors:
                return run_monitored(
                    decoded, input_data, monitors,
                    self.max_instructions, self.max_call_depth,
                )
            return run_fast(
                decoded, input_data, self.max_instructions, self.max_call_depth
            )
        return self._run_legacy(program, input_data, monitors)

    def _run_legacy(
        self,
        program: LoweredProgram,
        input_data: bytes,
        monitors: Sequence[BranchMonitor],
    ) -> RunResult:
        """The original tuple-dispatch interpreter (the baseline engine)."""
        functions = program.functions
        main = functions[program.main_index]

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
        limit = self.max_instructions
        depth_limit = self.max_call_depth

        in_monitor = False
        fault: Optional[VMError] = None
        recording = bool(monitors)
        events: List[int] = []
        chunk_events = room = vm_monitors.CHUNK_EVENTS

        binop_funcs = BINOP_FUNCS
        unop_funcs = UNOP_FUNCS

        regs = [0] * main.num_regs
        code = main.code
        pc = 0
        # Call stack entries: (code, regs, return_pc, dst_reg, via_indirect).
        stack = []
        exit_code: Optional[int] = None

        try:
            while True:
                ins = code[pc]
                pc += 1
                icount += 1
                if icount > limit:
                    raise InstructionLimitExceeded(
                        f"{program.name}: exceeded {limit} instructions"
                    )
                op = ins[0]
                if op == _OP_BIN:
                    regs[ins[2]] = binop_funcs[ins[1]](regs[ins[3]], regs[ins[4]])
                elif op == _OP_LOAD:
                    addr = regs[ins[2]]
                    if addr < 0 or addr >= mem_size:
                        raise VMError(
                            f"{program.name}: load from bad address {addr}"
                        )
                    regs[ins[1]] = memory[addr]
                elif op == _OP_CONST:
                    regs[ins[1]] = ins[2]
                elif op == _OP_BR:
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
                    callee = functions[ins[1]]
                    new_regs = [0] * callee.num_regs
                    for i, src in enumerate(ins[3]):
                        new_regs[i] = regs[src]
                    if len(stack) >= depth_limit:
                        raise VMError(f"{program.name}: call depth limit exceeded")
                    stack.append((code, regs, pc, ins[2], False))
                    code = callee.code
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
                    regs[ins[2]] = unop_funcs[ins[1]](regs[ins[3]])
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
                    new_regs = [0] * callee.num_regs
                    for i, src in enumerate(ins[3]):
                        new_regs[i] = regs[src]
                    if len(stack) >= depth_limit:
                        raise VMError(f"{program.name}: call depth limit exceeded")
                    stack.append((code, regs, pc, ins[2], True))
                    code = callee.code
                    regs = new_regs
                    pc = 0
                    indirect_calls += 1
                elif op == _OP_HALT:
                    exit_code = 0
                    break
                else:  # pragma: no cover - lowering emits only known opcodes
                    raise VMError(f"{program.name}: unknown opcode {op}")
        except ZeroDivisionError:
            if in_monitor:
                raise  # a monitor's own bug, not a guest division fault
            fault = VMError(f"{program.name}: division by zero")
        except IndexError:
            if in_monitor:
                raise  # a monitor's own bug, not a guest memory fault
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

        for monitor in monitors:
            monitor.on_run_end(icount)

        events = ControlEvents(
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
            events=events,
            output=bytes(output),
            exit_code=exit_code,
        )


def run_program(
    program: LoweredProgram,
    input_data: bytes = b"",
    monitors: Sequence[BranchMonitor] = (),
    max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
    engine: str = "fast",
) -> RunResult:
    """Convenience wrapper: run a program on a fresh :class:`Machine`."""
    machine = Machine(max_instructions=max_instructions, engine=engine)
    return machine.run(program, input_data=input_data, monitors=monitors)
