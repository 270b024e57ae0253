"""Differential harness for the predecoded engine.

The engine (repro.vm.engine) must be observably indistinguishable from
the original dispatch loop in ``tests/legacy_vm.py``: bit-identical
RunResults (instructions, per-branch exec/taken, events, output, exit
code), identical monitor callback streams, the same instruction-limit
trips and the same fault messages, over both generated programs and
every bundled workload x dataset.  Anything the engine, its fusion or
its superblocks get wrong shows up here as a disagreement with that
loop, which is kept precisely to serve as this oracle.
"""
import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.vm.monitors as vm_monitors
from repro.compiler import compile_source
import repro.vm as vm
from repro.ir.opcodes import BinOp, Opcode
from repro.vm.engine import (
    FUSIBLE_OPS,
    OP_FUSED,
    OP_SUPERBLOCK,
    PredecodedProgram,
    predecode,
    run_monitored,
    superblocks,
)
from repro.vm.errors import InstructionLimitExceeded, VMError
from repro.vm.machine import DEFAULT_MAX_CALL_DEPTH, Machine, run_program
from repro.vm.monitors import BranchMonitor, OutcomeRecorder, RunLengthMonitor
from repro.workloads import registry
from repro.workloads.sourcegen import mf_module
from tests.legacy_vm import LegacyMachine

#: The engine under test and the oracle, by the ids the tests are
#: parametrized with.
ENGINES = {"fast": Machine, "legacy": LegacyMachine}


def as_tuple(result):
    return dataclasses.astuple(result)


def lowered(source, name="test"):
    return compile_source(source, name=name).lowered


def superblock_count(program):
    return sum(
        ins[0] == OP_SUPERBLOCK
        for code in superblocks(predecode(program))
        for ins in code
    )


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
    fast = Machine().run(program, input_data=data)
    legacy = LegacyMachine().run(program, input_data=data)
    assert as_tuple(fast) == as_tuple(legacy)
    assert superblock_count(program) > 0


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
        result = ENGINES[engine]().run(program, monitors=recorders)
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
    fast = Machine()
    legacy = LegacyMachine()
    assert superblock_count(program) > 0
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
        fast = Machine().run(
            program, input_data=dataset.data, monitors=[recorder_fast]
        )
        legacy = LegacyMachine().run(
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


def test_fusible_ops_have_no_control_flow():
    from repro.ir.opcodes import Opcode

    control = {Opcode.BR, Opcode.JMP, Opcode.CALL, Opcode.ICALL,
               Opcode.RET, Opcode.HALT}
    assert not FUSIBLE_OPS & {int(op) for op in control}


def test_no_engine_selector_is_left():
    """One engine: no selector, no alias for it."""
    program = lowered("func main() { return 41; }")
    assert Machine().run(program).exit_code == 41
    assert run_program(program).exit_code == 41
    assert not hasattr(vm, "ENGINES")
    assert not hasattr(vm.machine, "ENGINES")
    with pytest.raises(TypeError):
        Machine(engine="fast")
    with pytest.raises(TypeError):
        run_program(program, engine="fast")


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
        Machine().run(bad_store)
    with pytest.raises(VMError, match="store to bad address"):
        LegacyMachine().run(bad_store)

    div_zero = lowered(
        """
        func main() {
            var d = 0;
            return 7 / d;
        }
        """
    )
    with pytest.raises(VMError, match="division by zero"):
        Machine().run(div_zero)
    with pytest.raises(VMError, match="division by zero"):
        LegacyMachine().run(div_zero)


# -- superblocks ---------------------------------------------------------------

#: Small programs for the instruction-limit sweep: loops in both branch
#: directions, calls out of a loop, and a loop that exits early.
LIMIT_SWEEP = {
    "nested": """
        func main() {
            var i; var j; var acc = 0;
            for (i = 0; i < 6; i += 1) {
                for (j = 0; j < i; j += 1) {
                    if ((i + j) % 3 == 0) { acc += j; } else { acc -= 1; }
                }
            }
            return acc & 127;
        }
        """,
    "calls": """
        arr table[8];
        func bump(k) { table[k % 8] = table[k % 8] + k; return k + 1; }
        func main() {
            var i = 0; var s = 0;
            while (i < 12) { i = bump(i); s += table[i % 8]; }
            putc(s & 255);
            return 0;
        }
        """,
    "early exit": """
        func main() {
            var i; var found = 0 - 1;
            for (i = 0; i < 50; i += 1) {
                if (i * i > 90) { found = i; break; }
            }
            return found;
        }
        """,
}


#: Each faults in a loop condition.  The loop body's superblock chains
#: the condition's block onto the (fault-free) body block.
FAULTS_IN_A_SUPERBLOCK = {
    "load from bad address -1": """
        arr buf[8];
        func main() {
            var i = 0;
            while (buf[7 - i] == 0) { i += 1; }
            return i;
        }
        """,
    "division by zero": """
        func main() {
            var i = 0; var j = 0;
            while (100 / (7 - i) != 0) { j += i; i += 1; }
            return j;
        }
        """,
}


def _outcome(run, *args):
    """A run's result, or the class and message of the error it raised."""
    try:
        return ("ok", as_tuple(run(*args)))
    except VMError as error:
        return (type(error).__name__, str(error))


_LIMIT = InstructionLimitExceeded.__name__


@pytest.mark.parametrize(
    "name", sorted(LIMIT_SWEEP) + sorted(FAULTS_IN_A_SUPERBLOCK)
)
def test_limit_sweep_matches_legacy(name):
    """At every limit up to the run's own count (or its fault), the fast
    engine raises iff the legacy loop raises.  It also raises exactly
    what the decoded code without superblocks raises (``run_monitored``
    with no monitors): a superblock entered too close to the limit would
    run past it, and in the faulting programs report the fault instead.

    The decoded code checks the limit once per fused element, so where a
    fault and the limit fall inside one element, the legacy loop reports
    the fault and the engine the limit; only there do their errors
    differ.
    """
    program = lowered(LIMIT_SWEEP.get(name) or FAULTS_IN_A_SUPERBLOCK[name])
    decoded = predecode(program)
    assert superblock_count(program) > 0
    for limit in range(10_000):
        legacy = _outcome(LegacyMachine(max_instructions=limit).run, program)
        fast = _outcome(Machine(max_instructions=limit).run, program)
        base = _outcome(
            run_monitored, decoded, b"", (), limit, DEFAULT_MAX_CALL_DEPTH
        )
        assert fast == base, (name, limit)
        assert (fast[0] == "ok") == (legacy[0] == "ok"), (name, limit)
        if legacy[0] != _LIMIT and fast[0] != _LIMIT:
            break
        if fast[0] != _LIMIT:
            assert fast == legacy, (name, limit)
    assert fast == legacy
    assert 20 < limit < 10_000


#: Opcodes that can fault inside a fused block.
_FAULTING = {int(Opcode.LOAD), int(Opcode.STORE)}
_FAULTING_BIN = {int(BinOp.DIV), int(BinOp.MOD)}


def _can_fault(ins):
    return ins[0] in _FAULTING or (
        ins[0] == int(Opcode.BIN) and ins[1] in _FAULTING_BIN
    )


@pytest.mark.parametrize("fault", sorted(FAULTS_IN_A_SUPERBLOCK))
def test_fault_inside_a_superblocks_second_block(fault):
    program = lowered(FAULTS_IN_A_SUPERBLOCK[fault])
    decoded = predecode(program)
    # Mark which superblock is running, so the fault can be placed.
    running = []
    for code in superblocks(decoded):
        for index, ins in enumerate(code):
            if ins[0] != OP_SUPERBLOCK:
                continue

            def traced(*args, _run=ins[1], _index=index):
                running.append(_index)
                result = _run(*args)
                running.pop()
                return result

            code[index] = (OP_SUPERBLOCK, traced) + ins[2:]
    with pytest.raises(VMError) as fast:
        Machine().run(program)
    with pytest.raises(VMError) as legacy:
        LegacyMachine().run(program)
    assert str(fast.value) == str(legacy.value) == f"test: {fault}"
    # The fault left a superblock mid-flight, and that superblock's head
    # block cannot fault, so the faulting op sat in a later block.
    assert len(running) == 1
    main = decoded.functions[decoded.main_index]
    _, head_ops, _ = main.segments[running[0]]
    assert not any(_can_fault(ins) for ins in head_ops)


def test_superblocks_are_built_once_and_only_for_unmonitored_runs():
    program = lowered(LOOPY)
    decoded = predecode(program)
    assert decoded.superblock_codes is None
    Machine().run(program, monitors=[OutcomeRecorder()])
    assert decoded.superblock_codes is None
    Machine().run(program)
    codes = decoded.superblock_codes
    assert codes is not None and superblocks(decoded) is codes
    for func, code in zip(decoded.functions, codes):
        assert len(code) == len(func.code)
        for base, ins in zip(func.code, code):
            if ins[0] == OP_SUPERBLOCK:
                # A head replaces its element and runs more than it alone.
                assert ins[3] is base and ins[2] > base[2]
            else:
                assert ins is base


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
    machine = ENGINES[engine]()
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
                ENGINES[engine](max_instructions=5_000).run(
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
    result = ENGINES[engine]().run(program, monitors=[monitor])
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
