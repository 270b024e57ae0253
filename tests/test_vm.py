"""Virtual machine behaviour: counting, limits, monitors, events."""
import pytest

from repro.compiler import compile_source
from repro.dynamic import BimodalPredictor, DynamicScoreMonitor
from repro.vm import (
    InstructionLimitExceeded,
    Machine,
    OutcomeRecorder,
    VMError,
    run_program,
)

from tests.helpers import compile_and_run

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
    machine = Machine(max_instructions=1000)
    with pytest.raises(InstructionLimitExceeded):
        machine.run(program.lowered)


def test_call_depth_limit_enforced():
    program = compile_source(
        "func f(n) { return f(n + 1); } func main() { return f(0); }"
    )
    machine = Machine(max_call_depth=50)
    with pytest.raises(VMError, match="depth"):
        machine.run(program.lowered)


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
    monitor = DynamicScoreMonitor(
        [BimodalPredictor(table_size=None, num_bits=num_bits)],
        lowered.branch_table,
    )
    result = run_program(lowered, monitors=[monitor])
    return monitor, result


def test_online_two_bit_predictor_learns_a_loop():
    monitor, _ = bimodal_run(num_bits=2)
    # Mispredicts while warming up (2) and at the final not-taken exit (1).
    assert monitor.mispredicts == [3]
    assert monitor.hits == [98]


def test_online_one_bit_predictor():
    monitor, _ = bimodal_run(num_bits=1)
    # 1-bit: one warm-up miss, one miss at exit.
    assert monitor.mispredicts == [2]


def test_monitor_accuracy_property():
    monitor, result = bimodal_run(num_bits=2)
    assert 0 < monitor.score(0, result).percent_correct < 1


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
