"""Optimizer pass tests."""
import dataclasses

from repro.compiler import RunConfig, compile_source
from repro.ir import Opcode
from repro.opt import constant_globals, pipeline
from repro.vm.machine import run_program

from tests.helpers import (
    SELECT_OFF,
    UNOPTIMIZED,
    compile_and_run,
    compile_reference,
)


def ops_of(program, func_name):
    func = program.module.function(func_name)
    return [instr.op for instr in func.instructions()]


def test_constant_folding_collapses_arithmetic():
    program = compile_source("func main() { return 2 * 3 + 4; }")
    ops = ops_of(program, "main")
    assert Opcode.BIN not in ops


def test_constant_folding_preserves_division_by_zero():
    # 1 / 0 must still fault at run time, not at compile time.
    program = compile_source("func main() { return 1 / 0; }")
    ops = ops_of(program, "main")
    assert Opcode.BIN in ops


def test_cse_does_not_reuse_an_expression_over_its_own_operand():
    # ``a += b`` overwrites an operand of ``a + b``, so the later ``a + b``
    # must be recomputed: h(3, 5) is (3 + 5) + 5 + 1 = 14.
    source = """
    func h(a, b) { a += b; return a + b + 1; }
    func main() { return h(getc(), getc()) & 127; }
    """
    for config in (RunConfig(), RunConfig(dce=True), UNOPTIMIZED):
        result = compile_and_run(source, input_data=b"\x03\x05", config=config)
        assert result.exit_code == 14, config


def test_cse_removes_duplicate_computation():
    # Operands come from input so constant folding cannot pre-compute them;
    # CSE must share the repeated a*b.
    source = """
    func main() {
        var a = getc(); var b = getc();
        var x = a * b + 1;
        var y = a * b + 2;
        return x + y;
    }
    """
    from repro.ir.opcodes import BinOp

    def multiplies(program):
        return sum(
            1
            for instr in program.module.function("main").instructions()
            if instr.op == Opcode.BIN and instr.subop == int(BinOp.MUL)
        )

    unopt_program = compile_reference(source, select=False, optimize=False)
    opt_program = compile_source(source)
    assert multiplies(unopt_program) == 2
    assert multiplies(opt_program) == 1  # CSE shares a*b (leaves a MOV)
    data = bytes([5, 7])
    assert run_program(opt_program.lowered, input_data=data).exit_code == 73
    # With dead-instruction elimination on top, the dynamic count shrinks too.
    dce = compile_and_run(source, input_data=data, config=RunConfig(dce=True))
    base = compile_and_run(source, input_data=data, config=UNOPTIMIZED)
    assert dce.exit_code == 73
    assert dce.instructions < base.instructions


def test_constant_global_becomes_constant():
    source = """
    var MODE = 3;
    func main() { return MODE; }
    """
    program = compile_source(source)
    ops = ops_of(program, "main")
    # The ADDR+LOAD pair folds to a constant because MODE is never written.
    assert Opcode.LOAD not in ops


def test_written_global_is_not_constant():
    source = """
    var mode = 3;
    func set() { mode = 4; }
    func main() { set(); return mode; }
    """
    program = compile_source(source)
    assert "mode" not in constant_globals(program.module)
    assert run_program(program.lowered).exit_code == 4


def test_array_writes_do_not_mark_scalars():
    source = """
    var FLAG = 1;
    arr buf[4];
    func main() { buf[2] = 9; return FLAG + buf[2]; }
    """
    program = compile_source(source)
    consts = constant_globals(program.module)
    assert consts.get("FLAG") == 1
    assert "buf" not in consts
    assert run_program(program.lowered).exit_code == 10


DEBUG_GUARDED = """
var DEBUG = 0;
var work;
func main() {
    var i;
    for (i = 0; i < 50; i += 1) {
        if (DEBUG) { work = work + i; }
        work = work + 1;
    }
    return work;
}
"""


def test_paper_config_keeps_constant_branch():
    """With DCE off (paper setup) the dead branch executes every iteration."""
    result = compile_and_run(DEBUG_GUARDED)
    assert result.exit_code == 50
    counts = result.branch_counts()
    # Two branches execute: the loop test and the constant DEBUG test.
    assert len(counts) == 2
    assert any(executed == 50 and taken == 0 for executed, taken in counts.values())


def test_dce_removes_constant_branch():
    result = compile_and_run(DEBUG_GUARDED, config=RunConfig(dce=True))
    assert result.exit_code == 50
    assert len(result.branch_counts()) == 1  # only the loop test remains
    baseline = compile_and_run(DEBUG_GUARDED)
    assert result.instructions < baseline.instructions


def test_classical_removes_plainly_unused_computation():
    # A computation with no use at all is removed by classical
    # dead-instruction elimination, without global DCE.
    source = """
    func main() {
        var i; var live = 0; var dead = 0;
        for (i = 0; i < 30; i += 1) {
            dead = i * 17 + 3;
            live += 2;
        }
        return live;
    }
    """
    unopt = compile_and_run(source, config=UNOPTIMIZED)
    classical = compile_and_run(source)
    assert unopt.exit_code == classical.exit_code == 60
    assert classical.instructions < unopt.instructions


def test_guarded_use_keeps_computation_live_until_dce():
    # The paper's dead-code shape: a computation whose only use sits behind
    # a constant-false guard.  Classical opts keep it; global DCE removes
    # both the guard branch and the computation.
    source = """
    var CHECKED = 0;
    var audit;
    func main() {
        var i; var live = 0;
        for (i = 0; i < 30; i += 1) {
            var norm = i * 17 + 3;
            if (CHECKED) { audit = audit + norm; }
            live += 2;
        }
        return live;
    }
    """
    classical = compile_and_run(source)
    dce = compile_and_run(source, config=RunConfig(dce=True))
    assert classical.exit_code == dce.exit_code == 60
    assert dce.instructions < classical.instructions
    assert len(dce.branch_counts()) < len(classical.branch_counts())


def test_branch_ids_survive_optimization():
    source = """
    func main() {
        var i; var n = 0;
        for (i = 0; i < 10; i += 1) {
            if (i % 3 == 0) { n += 1; }
        }
        return n;
    }
    """
    default = compile_source(source)
    unopt = compile_reference(source, select=False, optimize=False)
    assert set(default.module.branch_ids()) == set(unopt.module.branch_ids())


def test_dce_only_removes_branches_it_proves_constant():
    source = """
    var LIMIT = 10;
    func main() {
        var i; var n = 0;
        for (i = 0; i < LIMIT; i += 1) { n += 1; }
        return n;
    }
    """
    # LIMIT is constant, but the loop test depends on i too: branch stays.
    result = compile_and_run(source, config=RunConfig(dce=True))
    assert result.exit_code == 10
    assert len(result.branch_counts()) == 1


def test_jump_threading_reduces_jump_events(monkeypatch):
    source = """
    func main() {
        var i; var n = 0;
        for (i = 0; i < 20; i += 1) {
            if (i % 2) { n += 1; } else { n += 2; }
        }
        return n;
    }
    """
    threaded = compile_and_run(source, config=SELECT_OFF)
    monkeypatch.setattr(pipeline, "PASSES", [
        entry for entry in pipeline.PASSES if entry.name != "jump-threading"
    ])
    unthreaded = compile_and_run(source, config=SELECT_OFF)
    assert threaded.exit_code == unthreaded.exit_code == 30
    assert threaded.events.jumps <= unthreaded.events.jumps


def test_optimization_never_changes_output():
    source = """
    arr data[32];
    func hash(x) { return (x * 31 + 7) % 101; }
    func main() {
        var i;
        for (i = 0; i < 32; i += 1) { data[i] = hash(i); }
        var total = 0;
        for (i = 0; i < 32; i += 1) { total += data[i]; }
        putc(total % 256);
        return total % 100;
    }
    """
    results = [
        compile_and_run(source, config=config)
        for config in (RunConfig(), RunConfig(dce=True), UNOPTIMIZED)
    ]
    assert len({r.exit_code for r in results}) == 1
    assert len({r.output for r in results}) == 1


#: The passes ``optimize_module`` runs under each experiment RunConfig.
CLASSICAL = [
    "constant-folding", "copy-propagation", "cse", "jump-threading",
    "dead-instructions",
]
EXPECTED_PASSES = {
    RunConfig(): CLASSICAL,
    RunConfig(dce=True): CLASSICAL[:4] + [
        "branch-folding", "remove-unreachable", "dead-instructions",
    ],
    RunConfig(inline=True): CLASSICAL,
    RunConfig(if_conversion=True): CLASSICAL[:4] + [
        "if-conversion", "dead-instructions",
    ],
}


def test_each_run_config_runs_its_passes(monkeypatch):
    # Spies that change nothing: one function, one iteration, so each
    # enabled pass runs exactly once per compile.
    ran = []

    def spy(entry):
        def run(func, const_globals):
            ran.append(entry.name)
            return False

        return dataclasses.replace(entry, run=run)

    monkeypatch.setattr(
        pipeline, "PASSES", [spy(entry) for entry in pipeline.PASSES]
    )
    for config, expected in EXPECTED_PASSES.items():
        ran.clear()
        compile_source("func main() { return getc(); }", config=config)
        assert ran == expected, config
