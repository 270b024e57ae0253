"""Differential harness for the predecoded fast-path engine.

The fast engine (repro.vm.engine) must be observably indistinguishable
from the legacy dispatch loop: bit-identical RunResults (instructions,
per-branch exec/taken, events, output, exit code) and identical monitor
callback streams, over both generated programs and every bundled
workload x dataset.  Anything the fast path gets wrong shows up here as
a disagreement with the legacy loop, which stays in the tree precisely
to serve as this oracle.
"""
import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.vm.monitors as vm_monitors
from repro.compiler import compile_source
from repro.vm.engine import (
    FUSIBLE_OPS,
    OP_FUSED,
    PredecodedProgram,
    predecode,
)
from repro.vm.errors import VMError
from repro.vm.machine import ENGINES, Machine, run_program
from repro.vm.monitors import BranchMonitor, OutcomeRecorder, RunLengthMonitor
from repro.workloads import registry
from repro.workloads.sourcegen import mf_module


def as_tuple(result):
    return dataclasses.astuple(result)


def lowered(source, name="test"):
    return compile_source(source, name=name).lowered


LOOPY = """
arr table[16];
func helper(n) {
    var i; var acc = 0;
    for (i = 0; i < n; i += 1) {
        if (i % 3 == 0) { acc += table[i % 16]; }
        else { table[i % 16] = acc & 255; }
    }
    return acc;
}
func main() {
    var i; var total = 0;
    for (i = 0; i < 40; i += 1) { total = total + helper(i % 7); }
    putc(total & 255);
    return total & 127;
}
"""


# -- generated-program differential -------------------------------------------


@given(st.integers(0, 100_000), st.binary(max_size=8))
@settings(max_examples=60, deadline=None)
def test_fast_matches_legacy_on_generated_modules(seed, data):
    program = lowered(mf_module(seed), name=f"p{seed}")
    fast = Machine(engine="fast").run(program, input_data=data)
    legacy = Machine(engine="legacy").run(program, input_data=data)
    assert as_tuple(fast) == as_tuple(legacy)


class EndCountingRecorder(OutcomeRecorder):
    """Records the outcome stream and every ``on_run_end`` call."""

    def on_run_start(self, num_branches):
        super().on_run_start(num_branches)
        self.ends = []

    def on_run_end(self, icount):
        self.ends.append(icount)


@given(st.integers(0, 100_000), st.integers(1, 2))
@settings(max_examples=25, deadline=None)
def test_monitored_fast_matches_legacy_on_generated_modules(seed, count):
    # Two monitors take the fan-out path of the fast engine.
    program = lowered(mf_module(seed), name=f"p{seed}")
    results, streams = [], []
    for engine in ENGINES:
        recorders = [EndCountingRecorder() for _ in range(count)]
        result = Machine(engine=engine).run(program, monitors=recorders)
        for recorder in recorders:
            assert recorder.ends == [result.instructions], engine
        results.append(as_tuple(result))
        streams.append([recorder.outcomes for recorder in recorders])
    assert results[0] == results[1]
    assert streams[0] == streams[1]
    assert all(stream == streams[0][0] for stream in streams[0])


# -- bundled-workload differential --------------------------------------------


@pytest.mark.parametrize("workload_name", registry.workload_names())
def test_fast_matches_legacy_on_workload(workload_name):
    """Bit-identical RunResults for every dataset of every bundled workload."""
    workload = registry.get_workload(workload_name)
    program = lowered(workload.source, name=workload_name)
    fast = Machine(engine="fast")
    legacy = Machine(engine="legacy")
    for dataset in workload.datasets:
        fast_result = fast.run(program, input_data=dataset.data)
        legacy_result = legacy.run(program, input_data=dataset.data)
        assert as_tuple(fast_result) == as_tuple(legacy_result), (
            workload_name, dataset.name,
        )


def test_monitored_fast_matches_legacy_on_smallest_workload_runs():
    """Identical monitor callback streams on real workloads (the smallest
    dataset of a few workloads keeps the recorded streams tractable)."""
    for workload_name in ("compress", "li", "eqntott"):
        workload = registry.get_workload(workload_name)
        program = lowered(workload.source, name=workload_name)
        dataset = min(workload.datasets, key=lambda ds: len(ds.data))
        recorder_fast, recorder_legacy = OutcomeRecorder(), OutcomeRecorder()
        fast = Machine(engine="fast").run(
            program, input_data=dataset.data, monitors=[recorder_fast]
        )
        legacy = Machine(engine="legacy").run(
            program, input_data=dataset.data, monitors=[recorder_legacy]
        )
        assert as_tuple(fast) == as_tuple(legacy), (workload_name, dataset.name)
        assert recorder_fast.outcomes == recorder_legacy.outcomes


def test_serial_and_parallel_runs_are_identical(tmp_path):
    """One experiment through the new engine: serial and --jobs 2 runs
    publish byte-identical results."""
    from repro.core.parallel import RunRequest
    from repro.core.runner import WorkloadRunner

    workload = registry.get_workload("compress")
    requests = [
        RunRequest("compress", name) for name in workload.dataset_names()
    ]
    serial = WorkloadRunner(cache_dir=str(tmp_path / "serial"), jobs=1)
    fanout = WorkloadRunner(cache_dir=str(tmp_path / "fanout"), jobs=2)
    serial_results = serial.run_many(requests)
    fanout_results = fanout.run_many(requests)
    assert [as_tuple(r) for r in serial_results] == [
        as_tuple(r) for r in fanout_results
    ]


# -- decode correctness --------------------------------------------------------


def test_predecoded_form_is_cached_on_the_program():
    program = lowered(LOOPY)
    first = predecode(program)
    assert isinstance(first, PredecodedProgram)
    assert predecode(program) is first
    assert program.predecoded is first


def test_fusion_collapses_straight_line_runs():
    program = lowered(LOOPY)
    decoded = predecode(program)
    total_fused = sum(func.fused_ops for func in decoded.functions)
    assert total_fused > 0
    for original, fast in zip(program.functions, decoded.functions):
        assert len(fast.code) <= len(original.code)
        # Decoded instruction counts must add back up to the original.
        expanded = sum(
            ins[2] if ins[0] > OP_FUSED - 1 else 1 for ins in fast.code
        )
        assert expanded == len(original.code)


def test_jump_target_scan_fallback_matches_lowering_metadata():
    """A hand-built function (jump_targets=None) decodes via the scan
    fallback to the same behaviour as the lowering-provided metadata."""
    with_metadata = lowered(LOOPY)
    without_metadata = lowered(LOOPY)
    for func in without_metadata.functions:
        func.jump_targets = None
    expected = Machine(engine="fast").run(with_metadata)
    actual = Machine(engine="fast").run(without_metadata)
    assert as_tuple(expected) == as_tuple(actual)


def test_fusible_ops_have_no_control_flow():
    from repro.ir.opcodes import Opcode

    control = {Opcode.BR, Opcode.JMP, Opcode.CALL, Opcode.ICALL,
               Opcode.RET, Opcode.HALT}
    assert not FUSIBLE_OPS & {int(op) for op in control}


def test_engine_selector():
    program = lowered("func main() { return 41; }")
    assert Machine(engine="legacy").run(program).exit_code == 41
    assert Machine(engine="fast").run(program).exit_code == 41
    assert run_program(program, engine="legacy").exit_code == 41
    assert set(ENGINES) == {"fast", "legacy"}
    with pytest.raises(ValueError, match="engine"):
        Machine(engine="turbo")


def test_faults_are_identical_across_engines():
    bad_store = lowered(
        """
        arr buf[4];
        func main() {
            var i = 0 - 5;
            buf[i] = 1;
            return 0;
        }
        """
    )
    with pytest.raises(VMError, match="store to bad address"):
        Machine(engine="fast").run(bad_store)
    with pytest.raises(VMError, match="store to bad address"):
        Machine(engine="legacy").run(bad_store)

    div_zero = lowered(
        """
        func main() {
            var d = 0;
            return 7 / d;
        }
        """
    )
    with pytest.raises(VMError, match="division by zero"):
        Machine(engine="fast").run(div_zero)
    with pytest.raises(VMError, match="division by zero"):
        Machine(engine="legacy").run(div_zero)


# -- monitor contract regressions ---------------------------------------------


class _ExplodingMonitor(BranchMonitor):
    """A deliberately-broken observer: its own bugs must surface as its
    own exceptions, not as guest-program VM faults."""

    def __init__(self, exc_type):
        self.exc_type = exc_type

    def replay(self, chunk):
        if self.exc_type is ZeroDivisionError:
            _ = 1 // 0
        else:
            _ = [][1]


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize(
    "exc_type, fan_out",
    [
        pytest.param(ZeroDivisionError, False, id="ZeroDivisionError"),
        pytest.param(IndexError, False, id="IndexError"),
        pytest.param(ZeroDivisionError, True, id="ZeroDivisionError-fan-out"),
        pytest.param(IndexError, True, id="IndexError-fan-out"),
    ],
)
def test_monitor_bugs_are_not_misattributed_to_the_guest(
    engine, exc_type, fan_out, monkeypatch
):
    # Before the fix, the dispatch loop's broad except arms converted a
    # monitor's own ZeroDivisionError/IndexError into a guest VMError
    # ("division by zero" / "bad register or code reference").  LOOPY's
    # events fit one default chunk, replayed after the loop; with 7-event
    # chunks the first replay happens inside the loop.
    program = lowered(LOOPY)
    machine = Machine(engine=engine)
    for chunk_events in (vm_monitors.CHUNK_EVENTS, 7):
        monkeypatch.setattr(vm_monitors, "CHUNK_EVENTS", chunk_events)
        bystanders = [EndCountingRecorder()] if fan_out else []
        with pytest.raises(exc_type) as excinfo:
            machine.run(
                program, monitors=bystanders + [_ExplodingMonitor(exc_type)]
            )
        assert not isinstance(excinfo.value, VMError)
        # An aborted run never reaches on_run_end.
        assert all(bystander.ends == [] for bystander in bystanders)


FAULTS_AFTER_BRANCHES = {
    "store to bad address": """
        arr buf[4];
        func main() {
            var i; var j = 0;
            for (i = 0; i < 20; i += 1) { if (i % 3 == 0) { j += 1; } }
            buf[j - 100] = 1;
            return 0;
        }
        """,
    "division by zero": """
        func main() {
            var i; var j = 0;
            for (i = 0; i < 20; i += 1) { if (i % 3 == 0) { j += 1; } }
            return 7 / (j - 7);
        }
        """,
    "exceeded 5000 instructions": """
        func main() {
            var i; var j = 0;
            for (i = 0; i < 1000000; i += 1) { if (i % 3 == 0) { j += 1; } }
            return j;
        }
        """,
}


@pytest.mark.parametrize("fault", sorted(FAULTS_AFTER_BRANCHES))
def test_events_before_a_guest_fault_reach_the_monitors(fault, monkeypatch):
    """Buffered events are replayed before a guest fault propagates: every
    engine and chunk size delivers the same stream, and on_run_end is
    still not called."""
    program = lowered(FAULTS_AFTER_BRANCHES[fault])
    streams = []
    for chunk_events in (vm_monitors.CHUNK_EVENTS, 7):
        monkeypatch.setattr(vm_monitors, "CHUNK_EVENTS", chunk_events)
        for engine in ENGINES:
            recorder = EndCountingRecorder()
            with pytest.raises(VMError, match=fault):
                Machine(engine=engine, max_instructions=5_000).run(
                    program, monitors=[recorder]
                )
            assert recorder.ends == []
            streams.append(recorder.outcomes)
    assert all(stream == streams[0] for stream in streams)
    assert len(streams[0]) >= 20


class ChunkLengths(BranchMonitor):
    """Records how many events every chunk it is handed holds."""

    def on_run_start(self, num_branches):
        self.lengths = []

    def replay(self, chunk):
        assert len(chunk) % 2 == 0
        self.lengths.append(len(chunk) // 2)


def test_chunks_never_exceed_the_chunk_size(runner):
    monitor = ChunkLengths()
    result = runner.run("li", "6queens", monitors=[monitor])
    assert max(monitor.lengths) <= vm_monitors.CHUNK_EVENTS
    assert all(
        length == vm_monitors.CHUNK_EVENTS for length in monitor.lengths[:-1]
    )
    assert sum(monitor.lengths) == result.total_branch_execs


@pytest.mark.parametrize("engine", ENGINES)
def test_run_length_monitor_flushes_the_tail_run(engine):
    # Before the fix, instructions executed after the last misprediction
    # were silently dropped, so run lengths never summed to the run's
    # instruction count.
    program = lowered(LOOPY)
    num_branches = len(program.branch_table)
    monitor = RunLengthMonitor([False] * num_branches)
    result = Machine(engine=engine).run(program, monitors=[monitor])
    assert monitor.run_lengths
    assert all(length > 0 for length in monitor.run_lengths)
    assert sum(monitor.run_lengths) == result.instructions


def test_run_length_tail_covers_a_fully_predicted_run():
    # Every branch predicted correctly: the whole run is one tail run.
    program = lowered(
        """
        func main() {
            var i; var acc = 0;
            for (i = 0; i < 10; i += 1) { acc += i; }
            return acc;
        }
        """
    )
    recorder = OutcomeRecorder()
    result = Machine().run(program, monitors=[recorder])
    directions = [None] * len(program.branch_table)
    for index, taken in recorder.outcomes:
        directions[index] = taken
    # Only valid if each branch is monotone in this toy program; the loop
    # branch flips on exit, so predict the majority (taken) and accept
    # one break plus the tail.
    monitor = RunLengthMonitor(
        [bool(direction) for direction in directions]
    )
    rerun = Machine().run(program, monitors=[monitor])
    assert sum(monitor.run_lengths) == rerun.instructions
