"""The original tuple-dispatch interpreter, kept as the counter oracle.

:class:`LegacyMachine` runs a :class:`~repro.ir.lower.LoweredProgram`
straight off its flat instruction tuples: one dispatch, one instruction
limit check and one ``elif`` opcode chain per executed operation, with no
predecoding, fusion or superblocks.  ``tests/test_vm_engine.py`` holds
:mod:`repro.vm.engine` to bit-identical results against it (instruction
counts, per-branch counts, control events, output, exit code, monitor
streams and fault messages), and ``benchmarks/bench_vm.py`` measures the
engine's speedup over it.  ``tests/reference_interp.py`` stays the
semantic oracle at the source level.
"""
from __future__ import annotations

from typing import List, Optional, Sequence

import repro.vm.monitors as vm_monitors
from repro.ir.lower import LoweredProgram
from repro.ir.opcodes import BINOP_FUNCS, UNOP_FUNCS, Opcode
from repro.vm.counters import ControlEvents, RunResult
from repro.vm.errors import InstructionLimitExceeded, VMError
from repro.vm.machine import DEFAULT_MAX_CALL_DEPTH, DEFAULT_MAX_INSTRUCTIONS
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


class LegacyMachine:
    """The same interface as :class:`repro.vm.machine.Machine`, run by the
    original dispatch loop."""

    def __init__(
        self,
        max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
        max_call_depth: int = DEFAULT_MAX_CALL_DEPTH,
    ) -> None:
        self.max_instructions = max_instructions
        self.max_call_depth = max_call_depth

    def run(
        self,
        program: LoweredProgram,
        input_data: bytes = b"",
        monitors: Sequence[BranchMonitor] = (),
    ) -> RunResult:
        main = program.functions[program.main_index]
        if main.num_params != 0:
            raise VMError("main must take no parameters")
        for monitor in monitors:
            monitor.on_run_start(len(program.branch_table))
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
