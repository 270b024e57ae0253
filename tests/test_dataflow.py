"""Dataflow framework tests: solver behavior and the concrete analyses."""
from repro.analysis import (
    DefiniteAssignment,
    live_sets,
    dead_instructions,
    lint_function,
    maybe_uninitialized_uses,
    solve,
)
from repro.ir.cfg import BasicBlock, Function
from repro.ir.instructions import BranchId, Instr
from repro.ir.opcodes import BinOp, Opcode
from repro.opt.deadcode import eliminate_dead_instructions

from tests.helpers import compile_reference


def function_of(source, name="main"):
    program = compile_reference(source, select=False, optimize=True)
    return program.module.function(name)


def _br(cond, then_label, else_label, index=0, function="main"):
    return Instr(
        Opcode.BR,
        a=cond,
        then_label=then_label,
        else_label=else_label,
        branch_id=BranchId(function, index),
    )


# -- solver ---------------------------------------------------------------------


def test_solver_terminates_on_unreachable_cycle():
    # entry returns; a two-block cycle floats unreachable behind it.
    func = Function(name="main", num_params=0, num_regs=1)
    func.blocks = [
        BasicBlock("entry", [Instr(Opcode.CONST, dst=0, imm=1),
                             Instr(Opcode.RET, a=0)]),
        BasicBlock("a", [Instr(Opcode.JMP, then_label="b")]),
        BasicBlock("b", [Instr(Opcode.JMP, then_label="a")]),
    ]
    result = solve(func, DefiniteAssignment())
    assert result.before["a"] is None  # unreachable = bottom
    assert result.before["b"] is None
    assert result.before["entry"] == frozenset()


def test_solver_terminates_on_loop_without_widening():
    # The back edge feeds the header a state computed from the header's
    # own; the intersection lattice settles after one round, so the
    # forward solver converges with no widening.
    func = function_of(
        """
        func main() {
            var i = 0; var n = 0;
            while (i < 10) { n = n + i; i = i + 1; }
            return i;
        }
        """
    )
    result = solve(func, DefiniteAssignment())
    branches = [
        b for b in func.blocks
        if b.terminator is not None and b.terminator.op == Opcode.BR
    ]
    assert branches
    for block in branches:
        state = result.after[block.label]
        assert state is not None
        assert block.terminator.a in state


# -- liveness -------------------------------------------------------------------


def test_liveness_diamond():
    # if (r0) r1 = 1 else r1 = 2; return r1
    func = Function(name="main", num_params=1, num_regs=2)
    func.blocks = [
        BasicBlock("entry", [_br(0, "t", "f")]),
        BasicBlock("t", [Instr(Opcode.CONST, dst=1, imm=1),
                         Instr(Opcode.JMP, then_label="join")]),
        BasicBlock("f", [Instr(Opcode.CONST, dst=1, imm=2),
                         Instr(Opcode.JMP, then_label="join")]),
        BasicBlock("join", [Instr(Opcode.RET, a=1)]),
    ]
    live_in, live_out = live_sets(func)
    assert live_in["entry"] == {0}
    assert live_out["t"] == {1}
    assert live_out["f"] == {1}
    assert live_in["join"] == {1}
    assert live_out["join"] == set()


def test_liveness_keeps_infinite_loop_blocks_at_boundary():
    # An infinite loop has no path to exit; bottom_is_boundary must keep
    # its live sets defined (matching historical dead-code semantics).
    func = Function(name="main", num_params=0, num_regs=2)
    func.blocks = [
        BasicBlock("entry", [Instr(Opcode.CONST, dst=0, imm=1),
                             Instr(Opcode.JMP, then_label="loop")]),
        BasicBlock("loop", [Instr(Opcode.BIN, dst=1, a=0, b=0,
                                  subop=int(BinOp.ADD)),
                            Instr(Opcode.JMP, then_label="loop")]),
    ]
    live_in, live_out = live_sets(func)
    assert live_in["loop"] == {0}
    assert live_out["loop"] == {0}


def test_dead_instructions_are_what_the_pass_deletes_and_the_lint_reports():
    def add(dst, a):
        return Instr(Opcode.BIN, dst=dst, a=a, b=a, subop=int(BinOp.ADD))

    func = Function(name="main", num_params=0, num_regs=4)
    func.blocks = [
        BasicBlock("entry", [
            Instr(Opcode.CONST, dst=1, imm=5),  # overwritten before any use
            Instr(Opcode.CONST, dst=1, imm=7),
            add(2, 1),  # read only by the dead add below
            add(3, 2),  # never read
            Instr(Opcode.RET, a=1),
        ]),
    ]
    assert dead_instructions(func) == {"entry": [0, 2, 3]}
    reported = [
        finding.message.split(" (")[0]
        for finding in lint_function(func) if finding.rule == "dead-store"
    ]
    assert reported == ["instruction 0", "instruction 2", "instruction 3"]
    assert eliminate_dead_instructions(func)
    assert [instr.op for instr in func.blocks[0].instrs] == [
        Opcode.CONST, Opcode.RET,
    ]
    assert dead_instructions(func) == {}
    assert not eliminate_dead_instructions(func)


# -- definite assignment ---------------------------------------------------------


def test_maybe_uninitialized_uses_detects_one_armed_init():
    func = Function(name="main", num_params=1, num_regs=2)
    func.blocks = [
        BasicBlock("entry", [_br(0, "t", "join")]),
        BasicBlock("t", [Instr(Opcode.CONST, dst=1, imm=1),
                         Instr(Opcode.JMP, then_label="join")]),
        BasicBlock("join", [Instr(Opcode.RET, a=1)]),
    ]
    findings = maybe_uninitialized_uses(func)
    assert [(label, reg) for label, _, _, reg in findings] == [("join", 1)]


def test_maybe_uninitialized_ignores_unreachable_blocks():
    func = Function(name="main", num_params=0, num_regs=2)
    func.blocks = [
        BasicBlock("entry", [Instr(Opcode.CONST, dst=0, imm=0),
                             Instr(Opcode.RET, a=0)]),
        BasicBlock("orphan", [Instr(Opcode.RET, a=1)]),
    ]
    assert maybe_uninitialized_uses(func) == []
