"""Virtual machine behaviour: counting, limits, monitors, events."""
import gc
import sys

import pytest

from repro.compiler import compile_source
from repro.dynamic import BimodalPredictor
from repro.vm import (
    InstructionLimitExceeded,
    OutcomeRecorder,
    VMError,
    run_program,
)

from tests.helpers import compile_and_run
from tests.legacy_vm import FastEngine, LegacyMachine

#: The engine and the legacy oracle, by the ids tests are parametrized with.
MACHINES = {"fast": FastEngine, "legacy": LegacyMachine}

COUNT_LOOP = """
func main() {
    var i;
    var sum = 0;
    for (i = 0; i < 100; i += 1) { sum += i; }
    return sum % 256;
}
"""


def test_instruction_count_is_exact_for_straight_line():
    # const, const, add, ret == 4 executed operations.
    program = compile_source("func main() { return 0; }")
    result = run_program(program.lowered)
    assert result.instructions == len(program.lowered.functions[0].code)


def test_instruction_limit_enforced():
    program = compile_source("func main() { while (1) { } }")
    with pytest.raises(InstructionLimitExceeded):
        run_program(program.lowered, max_instructions=1000)


def test_call_depth_limit_enforced():
    program = compile_source(
        "func f(n) { return f(n + 1); } func main() { return f(0); }"
    )
    with pytest.raises(VMError, match="depth"):
        run_program(program.lowered, max_call_depth=50)


#: Recurses to a call depth of 9,990 (main's frame is depth 0) at the
#: default limit of 10,000.
DEEP_RECURSION = """
func down(n) { if (n == 0) { return 0; } return down(n - 1) + 1; }
func main() { return down(9989); }
"""


@pytest.mark.parametrize("engine", MACHINES)
def test_deep_recursion_at_the_default_depth_limit(engine):
    limit = sys.getrecursionlimit()
    result = MACHINES[engine]().run(compile_source(DEEP_RECURSION).lowered)
    assert result.exit_code == 9989
    assert result.events.direct_calls == result.events.direct_returns == 9990
    assert sys.getrecursionlimit() == limit


@pytest.mark.parametrize("engine", MACHINES)
def test_unbounded_recursion_hits_the_default_depth_limit(engine):
    program = compile_source(
        "func f(n) { return f(n + 1); } func main() { return f(0); }",
        name="deep",
    )
    limit = sys.getrecursionlimit()
    with pytest.raises(VMError) as excinfo:
        MACHINES[engine]().run(program.lowered)
    assert str(excinfo.value) == "deep: call depth limit exceeded"
    assert sys.getrecursionlimit() == limit


def test_runs_leave_no_cyclic_garbage():
    """Each run's memory copy is freed when the run ends, not when the
    cyclic collector next runs: the run leaves no reference cycles, also
    through a function that calls itself."""
    program = compile_source(
        """
        arr big[200000];
        func fill(i) { if (i < 3) { big[199999 - i] = 7; fill(i + 1); } return 0; }
        func main() { fill(0); return big[199999]; }
        """
    ).lowered
    run_program(program)
    run_program(program, monitors=[OutcomeRecorder()])
    gc.collect()
    gc.disable()
    try:
        for _ in range(3):
            assert run_program(program).exit_code == 7
            assert run_program(program, monitors=[OutcomeRecorder()]).exit_code == 7
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_main_with_params_rejected_at_runtime():
    # Bypass the front end: lowering a module whose main takes params.
    from repro.ir import BasicBlock, Function, Instr, Module, Opcode
    from repro.ir.lower import lower_module

    func = Function(name="main", num_params=1, num_regs=1)
    func.blocks.append(BasicBlock("entry", [Instr(Opcode.RET, a=None)]))
    lowered = lower_module(Module(name="m", functions=[func]))
    with pytest.raises(VMError, match="main"):
        run_program(lowered)


def test_branch_counters_match_loop_trip_counts():
    result = compile_and_run(COUNT_LOOP)
    counts = result.branch_counts()
    assert len(counts) == 1
    (executed, taken), = counts.values()
    assert executed == 101  # 100 iterations + the failing test
    assert taken == 100


def test_runs_are_deterministic():
    first = compile_and_run(COUNT_LOOP)
    second = compile_and_run(COUNT_LOOP)
    assert first.instructions == second.instructions
    assert first.branch_exec == second.branch_exec
    assert first.branch_taken == second.branch_taken


def test_direct_call_and_return_events():
    source = """
    func f() { return 1; }
    func main() { return f() + f() + f(); }
    """
    result = compile_and_run(source)
    assert result.events.direct_calls == 3
    assert result.events.direct_returns == 3


def test_outcome_recorder_sees_every_branch():
    recorder = OutcomeRecorder()
    program = compile_source(COUNT_LOOP)
    run_program(program.lowered, monitors=[recorder])
    assert len(recorder.outcomes) == 101
    assert recorder.outcomes[0] == (0, True)
    assert recorder.outcomes[-1] == (0, False)


def bimodal_run(num_bits):
    """Run COUNT_LOOP under one infinite-table bimodal counter scheme."""
    lowered = compile_source(COUNT_LOOP).lowered
    model = BimodalPredictor(table_size=None, num_bits=num_bits)
    result = run_program(lowered, monitors=[model])
    return model, result


def test_online_two_bit_predictor_learns_a_loop():
    model, _ = bimodal_run(num_bits=2)
    # Mispredicts while warming up (2) and at the final not-taken exit (1).
    assert model.mispredicts == 3
    assert model.executions - model.mispredicts == 98


def test_online_one_bit_predictor():
    model, _ = bimodal_run(num_bits=1)
    # 1-bit: one warm-up miss, one miss at exit.
    assert model.mispredicts == 2


def test_monitor_accuracy_property():
    model, result = bimodal_run(num_bits=2)
    assert 0 < model.score(result).percent_correct < 1


def test_output_and_percent_taken():
    source = """
    func main() {
        var i;
        for (i = 0; i < 4; i += 1) { putc('a' + i); }
        return 0;
    }
    """
    result = compile_and_run(source)
    assert result.output == b"abcd"
    assert 0.0 < result.percent_taken() < 1.0


def test_memory_is_fresh_per_run():
    source = """
    var counter;
    func main() { counter += 1; return counter; }
    """
    program = compile_source(source)
    assert run_program(program.lowered).exit_code == 1
    assert run_program(program.lowered).exit_code == 1
