"""Differential harness for the compiled engine.

The engine (repro.vm.engine) must be observably indistinguishable from
the original dispatch loop in ``tests/legacy_vm.py``: bit-identical
RunResults (instructions, per-branch exec/taken, events, output, exit
code), identical monitor callback streams, the same instruction-limit
trips and the same fault messages, over both generated programs and
every bundled workload x dataset.  Anything the engine's generated
functions get wrong shows up here as a disagreement with that loop,
which is kept precisely to serve as this oracle.
"""
import copy
import dataclasses
import pickle
import re
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.vm.monitors as vm_monitors
from repro.compiler import RunConfig, compile_source
import repro.vm as vm
from repro.ir import Function, GlobalVar, IRBuilder, Module
from repro.ir.instructions import BranchId
from repro.ir.lower import LoweredFunction, LoweredProgram, lower_module
from repro.ir.opcodes import BinOp, Opcode, UnOp
from repro.prediction.base import FixedPredictor, ProfilePredictor
from repro.profiling.branch_profile import BranchProfile
from repro.vm.engine import (
    _body,
    _function_source,
    compiled,
    predecode,
    run_monitored,
)
from repro.vm.errors import InstructionLimitExceeded, VMError
from repro.vm.machine import DEFAULT_MAX_CALL_DEPTH, run_program
from repro.vm.monitors import BranchMonitor, OutcomeRecorder, RunLengthMonitor
from repro.workloads import registry
from tests.helpers import mf_module, run_with_monitors
from tests.legacy_vm import FastEngine, LegacyMachine

#: The engine under test and the oracle, by the ids the tests are
#: parametrized with.
ENGINES = {"fast": FastEngine, "legacy": LegacyMachine}


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


def dense_memory(module):
    """The whole memory a run starts with, laid out from the module's
    globals without the lowered image."""
    return [
        word
        for var in module.globals
        for word in var.init + (0,) * (var.size - len(var.init))
    ]


#: Arrays declared ahead of a generated module: zero runs before, between
#: and after their initialized words move the module's own globals and end
#: the image anywhere.
padding_arrays = st.lists(
    st.tuples(st.integers(1, 16), st.lists(st.integers(-2, 2), max_size=16)),
    max_size=3,
).map(
    lambda arrays: "".join(
        f"arr pad{index}[{max(size, len(init))}]"
        + (" = {" + ", ".join(map(str, init)) + "}" if init else "")
        + ";\n"
        for index, (size, init) in enumerate(arrays)
    )
)


@given(st.integers(0, 100_000), st.binary(max_size=8), padding_arrays)
@settings(max_examples=60, deadline=None)
def test_fast_matches_legacy_on_generated_modules(seed, data, padding):
    compiled_program = compile_source(padding + mf_module(seed), name=f"p{seed}")
    program = compiled_program.lowered
    assert program.initial_memory() == dense_memory(compiled_program.module)
    fast = run_program(program, input_data=data)
    legacy = LegacyMachine().run(program, input_data=data)
    assert as_tuple(fast) == as_tuple(legacy)


class EndCountingRecorder(OutcomeRecorder):
    """Records the outcome stream and every ``on_run_end`` call."""

    def on_run_start(self, branch_table):
        super().on_run_start(branch_table)
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
    legacy = LegacyMachine()
    for dataset in workload.datasets:
        fast_result = run_program(program, input_data=dataset.data)
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
        fast = run_program(
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
    assert predecode(program) is first
    assert program.predecoded is first


def test_program_that_has_run_pickles_and_copies():
    """The predecoded slot holds generated code, which does not pickle; a
    copy drops it, predecodes again and runs to the same result."""
    workload = registry.get_workload("lfk")
    dataset = workload.datasets[0]
    program = compile_source(workload.source, name=workload.name)
    original = run_program(program.lowered, input_data=dataset.data)
    assert program.lowered.predecoded is not None
    for clone in (pickle.loads(pickle.dumps(program)), copy.deepcopy(program)):
        assert clone.lowered.predecoded is None
        assert clone.lowered == program.lowered
        assert run_program(clone.lowered, input_data=dataset.data) == original
    assert program.lowered.predecoded is not None


def test_no_workload_image_stores_a_trailing_zero(runner):
    for workload in registry.all_workloads():
        program = runner.compiled(workload.name).lowered
        assert program.memory_init[-1:] != [0], workload.name
        assert len(program.memory_init) <= program.memory_size


def test_compiled_programs_pickle_without_their_zero_memory(runner):
    """li declares a 1.3M-word heap and initializes 3 words of it."""
    sizes = {
        workload.name: len(pickle.dumps(runner.compiled(workload.name)))
        for workload in registry.all_workloads()
    }
    assert sizes["li"] < 250_000
    assert sum(sizes.values()) < 1_000_000


def test_a_scalar_after_a_large_array_ends_the_image():
    """The image stops at the last initialized word and stores none of
    the zeros after it; both engines still read every word."""
    func = Function(name="main", num_params=0, num_regs=1)
    builder = IRBuilder(func)
    builder.set_block(builder.add_block("entry"))
    scalar = builder.load(builder.addr("answer"))
    last = builder.load(builder.bin(
        BinOp.ADD, builder.addr("tail"), builder.const(49)
    ))
    builder.ret(builder.bin(BinOp.ADD, scalar, last))
    module = Module(
        name="m",
        globals=[
            GlobalVar("big", 100_000),
            GlobalVar("answer", 1, (42,)),
            GlobalVar("tail", 50, (0, 0)),
        ],
        functions=[func],
    )
    program = lower_module(module)
    assert program.memory_size == 100_051
    assert len(program.memory_init) == 100_001
    assert program.memory_init[-1] == 42
    assert program.initial_memory() == dense_memory(module)
    for engine in ENGINES.values():
        assert engine().run(program).exit_code == 42


def test_no_engine_selector_is_left():
    """One engine: no selector, no alias for it."""
    program = lowered("func main() { return 41; }")
    assert run_program(program).exit_code == 41
    assert not hasattr(vm, "ENGINES")
    assert not hasattr(vm.machine, "ENGINES")
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
        run_program(bad_store)
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
        run_program(div_zero)
    with pytest.raises(VMError, match="division by zero"):
        LegacyMachine().run(div_zero)


# -- instruction limit and faults ----------------------------------------------

CONST, MOV, BIN, UN, LOAD, STORE, GETC, CALL, BR, JMP, RET = (
    int(op) for op in (
        Opcode.CONST, Opcode.MOV, Opcode.BIN, Opcode.UN, Opcode.LOAD,
        Opcode.STORE, Opcode.GETC, Opcode.CALL, Opcode.BR, Opcode.JMP, Opcode.RET,
    )
)


def hand_built(*functions, memory_size=8):
    """A program straight from lowered code, for shapes the compiler does
    not emit on demand.  Each function is ``(num_params, num_regs, code)``;
    the first is ``main``.  Memory starts as 10, 11, ..."""
    lowered_functions = []
    branches = 0
    for index, (num_params, num_regs, code) in enumerate(functions):
        targets = set()
        for ins in code:
            if ins[0] == BR:
                targets.update(ins[2:4])
                branches = max(branches, ins[4] + 1)
            elif ins[0] == JMP:
                targets.add(ins[1])
        name = f"f{index}" if index else "main"
        lowered_functions.append(
            LoweredFunction(name, num_params, num_regs, list(code), frozenset(targets))
        )
    return LoweredProgram(
        name="test",
        functions=lowered_functions,
        function_index={func.name: i for i, func in enumerate(lowered_functions)},
        main_index=0,
        memory_size=memory_size,
        memory_init=list(range(10, 10 + memory_size)),
        symbols={},
        branch_table=[BranchId("main", i) for i in range(branches)],
    )


def literal_address_fault(access):
    """A loop that loads and stores through in-range literal addresses,
    then ``access``es an out-of-range literal address mid-element."""
    return hand_built((0, 6, [
        (CONST, 0, 0),
        (CONST, 1, 6),
        (BIN, int(BinOp.LT), 2, 0, 1),        # 2: loop head
        (BR, 2, 4, 11, 0),
        (CONST, 3, 2),                        # 4: loop body
        (LOAD, 4, 3),
        (BIN, int(BinOp.ADD), 4, 4, 0),
        (STORE, 3, 4),
        (CONST, 5, 1),
        (BIN, int(BinOp.ADD), 0, 0, 5),
        (JMP, 2),
        (CONST, 3, 3),                        # 11: loop exit
        (LOAD, 4, 3),
        *access,
        (RET, 4),
    ]))


#: Twelve statements of six instructions each: a tail longer than the
#: engine copies into each way into a join.
LONG_TAIL = "\n".join(
    f"            acc = (acc * 3 + {k}) & 4095;" for k in range(12)
)

#: Small programs for the instruction-limit sweep: loops in both branch
#: directions, calls out of a loop, a loop that exits early, loops
#: followed by a load from and a store to an out-of-range literal address
#: (whose bounds checks the engine decides when it generates the code), a
#: loop whose body is a diamond with a short join (copied into both ways
#: in), one whose join has a tail too long to copy (it stays an arm), and
#: a recursion without loops, which only the checks at function entry
#: bound.
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
    "literal load from bad address": literal_address_fault(
        [(CONST, 5, -2), (LOAD, 4, 5)]
    ),
    "literal store to bad address": literal_address_fault(
        [(CONST, 5, 8), (STORE, 5, 4)]
    ),
    "diamond with a short join": """
        func main() {
            var i; var acc = 1;
            for (i = 0; i < 9; i += 1) {
                if (i & 1) { acc += i; } else { acc = acc ^ 5; }
                acc = acc * 3 & 1023;
            }
            return acc & 127;
        }
        """,
    "diamond with a long join": f"""
        func main() {{
            var i; var acc = 1;
            for (i = 0; i < 3; i += 1) {{
                if (i & 1) {{ acc += i; }} else {{ acc = acc ^ 5; }}
{LONG_TAIL}
            }}
            return acc & 127;
        }}
        """,
    "tree recursion": """
        func fib(n) {
            if (n < 2) { return n; }
            return fib(n - 1) + fib(n - 2);
        }
        func main() { return fib(7); }
        """,
}


#: Each faults in a loop condition, whose block is an arm of main's loop.
FAULTS_IN_A_LOOP_CONDITION = {
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
    "negative shift count": """
        func main() {
            var i = 0; var j = 0;
            while ((1 << (5 - i)) != 0) { j += i; i += 1; }
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


def sweep_program(name):
    """The lowered program of a limit-sweep or loop-condition fault case."""
    source = LIMIT_SWEEP.get(name) or FAULTS_IN_A_LOOP_CONDITION[name]
    return source if isinstance(source, LoweredProgram) else lowered(source)


@pytest.mark.parametrize(
    "name", sorted(LIMIT_SWEEP) + sorted(FAULTS_IN_A_LOOP_CONDITION)
)
def test_limit_sweep_matches_legacy(name):
    """At every limit up to the run's own count (or its fault), the fast
    engine raises iff the legacy loop raises.  The plain variant also
    raises exactly what the recording variant raises (``run_monitored``
    with no monitors).

    The engine checks the limit at the head of each arm and at function
    entry, and once more when the run ends (a return, a ``halt`` or a
    fault), so it may run on past the limit to the next check.  Its count
    only grows and is exact there, so a run that passed the limit anywhere
    ends with the limit error.  A fault's count includes the rest of its
    element, so where a fault and the limit fall inside one element, the
    legacy loop reports the fault and the engine the limit; only there do
    their errors differ.
    """
    program = sweep_program(name)
    decoded = predecode(program)
    for limit in range(10_000):
        legacy = _outcome(LegacyMachine(max_instructions=limit).run, program)
        fast = _outcome(FastEngine(max_instructions=limit).run, program)
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


@pytest.mark.parametrize(
    "name", sorted(LIMIT_SWEEP) + sorted(FAULTS_IN_A_LOOP_CONDITION)
)
def test_limit_sweep_streams_match_legacy(name, monkeypatch):
    """At every limit, monitors of a run in 7-event chunks are handed the
    legacy loop's stream, instruction counts included.  The events the
    engine records past the limit, before its next check, are dropped,
    also by a flush in the middle of the run."""
    monkeypatch.setattr(vm_monitors, "CHUNK_EVENTS", 7)
    program = sweep_program(name)
    for limit in range(10_000):
        runs = []
        for engine in ENGINES.values():
            recorders = [OutcomeRecorder(), ChunkRecorder()]
            outcome = _outcome(
                engine(max_instructions=limit).run, program, b"", recorders
            )
            runs.append((outcome, recorders[0].outcomes, recorders[1].items))
        fast, legacy = runs
        assert fast[1:] == legacy[1:], (name, limit)
        assert (fast[0][0] == "ok") == (legacy[0][0] == "ok"), (name, limit)
        if legacy[0][0] != _LIMIT and fast[0][0] != _LIMIT:
            break
    assert fast == legacy
    assert 20 < limit < 10_000


def test_limit_sweep_shapes_compile_to_their_arms():
    """The sweep's join shapes: a short join is copied into the loop
    body's arm; a long one is an arm of its own; a recursion without
    loops has no arms."""

    def arms(name, function="main"):
        program = sweep_program(name)
        decoded = predecode(program)
        func = decoded.functions[program.function_index[function]]
        return len(func.arms), _body(program, func, False)[1]

    assert arms("diamond with a short join") == (1, 1)
    assert arms("diamond with a long join") == (2, 2)
    assert arms("tree recursion", "fib") == (0, 0)


@given(st.integers(0, 100_000), st.data())
@settings(max_examples=60, deadline=None)
def test_limits_match_legacy_on_generated_modules(seed, data):
    """At a limit anywhere up to the full run's count, the plain and the
    recording variant raise the limit error exactly when the legacy loop
    does, and otherwise return its result; monitors of either see the
    legacy stream."""
    program = lowered(mf_module(seed), name=f"p{seed}")
    full = LegacyMachine().run(program).instructions
    limit = data.draw(st.integers(0, full), label="limit")
    chunk_events = data.draw(
        st.sampled_from([7, vm_monitors.CHUNK_EVENTS]), label="chunk_events"
    )
    runs = []
    with mock.patch.object(vm_monitors, "CHUNK_EVENTS", chunk_events):
        for engine in ENGINES.values():
            recorder = ChunkRecorder()
            plain = _outcome(engine(max_instructions=limit).run, program)
            monitored = _outcome(
                engine(max_instructions=limit).run, program, b"", [recorder]
            )
            runs.append((plain, monitored, recorder.items))
    assert runs[0] == runs[1]
    assert runs[0][0][0] == ("ok" if limit == full else _LIMIT)


_LIMIT_CHECK_LINE = "if icount > limit:"


def test_espresso_distance_loops_in_one_arm():
    """In the loop of espresso's ``distance``, the join after
    ``if ((pa & pb) == 0)`` is copied into both ways in, so the whole
    loop is one arm that loops on itself: no ``pc`` is set, and the limit
    is checked at entry and once per iteration, at the arm's head."""
    program = lowered(registry.get_workload("espresso").source, name="espresso")
    func = predecode(program).functions[program.function_index["distance"]]
    lines, arms = _body(program, func, False)
    assert arms == len(func.arms) == 1
    assert not any(line.lstrip().startswith("pc =") for line in lines)
    checks = [
        pos for pos, line in enumerate(lines) if line.strip() == _LIMIT_CHECK_LINE
    ]
    loops = [pos for pos, line in enumerate(lines) if line.strip() == "while True:"]
    assert len(checks) == 2 and len(loops) == 1
    assert lines[loops[0] + 1] == "    " + _LIMIT_CHECK_LINE
    assert any(line.strip() == "continue" for line in lines)


def test_limit_checks_are_the_arms_plus_one():
    """Every generated function of every workload, in both variants,
    checks the limit once at entry and once at the head of each arm, and
    nowhere else."""
    for name in registry.workload_names():
        program = lowered(registry.get_workload(name).source, name=name)
        for func in predecode(program).functions:
            for recording in (False, True):
                lines, arms = _body(program, func, recording)
                checks = sum(line.strip() == _LIMIT_CHECK_LINE for line in lines)
                assert checks == arms + 1, (name, func.name, recording)
                assert arms >= len(func.arms), (name, func.name, recording)


#: Opcodes that can fault inside an element.
_FAULTING = {int(Opcode.LOAD), int(Opcode.STORE)}
_FAULTING_BIN = {
    int(BinOp.DIV), int(BinOp.MOD), int(BinOp.SHL), int(BinOp.SHR),
}


def _can_fault(ins):
    return ins[0] in _FAULTING or (
        ins[0] == int(Opcode.BIN) and ins[1] in _FAULTING_BIN
    )


@pytest.mark.parametrize("fault", sorted(FAULTS_IN_A_LOOP_CONDITION))
def test_fault_in_a_loop_condition_matches_legacy(fault):
    program = lowered(FAULTS_IN_A_LOOP_CONDITION[fault])
    # The only op that can fault sits in a block the loop jumps back to.
    main = predecode(program).functions[program.main_index]
    faulting = [
        block.start
        for block in main.blocks.values()
        for element in block.elements
        if any(_can_fault(ins) for ins in element)
    ]
    assert len(faulting) == 1
    assert faulting[0] in program.functions[program.main_index].jump_targets
    with pytest.raises(VMError) as fast:
        run_program(program)
    with pytest.raises(VMError) as monitored:
        run_program(program, monitors=[OutcomeRecorder()])
    with pytest.raises(VMError) as legacy:
        LegacyMachine().run(program)
    assert str(fast.value) == str(monitored.value) == str(legacy.value)
    assert str(legacy.value) == f"test: {fault}"


def test_each_variant_is_built_once_and_monitored_runs_never_build_the_plain_one():
    program = lowered(LOOPY)
    decoded = predecode(program)
    assert decoded.plain is None and decoded.recording is None
    run_program(program, monitors=[OutcomeRecorder()])
    recording = decoded.recording
    assert recording is not None and decoded.plain is None
    run_program(program)
    plain = decoded.plain
    assert plain is not None
    run_program(program)
    run_program(program, monitors=[OutcomeRecorder()])
    assert compiled(decoded, recording=False) is plain
    assert compiled(decoded, recording=True) is recording
    assert len(plain) == len(recording) == len(program.functions)
    # Only the recording variant touches the event buffer.
    assert not any("record" in code.co_freevars for code in plain)
    assert any("record" in code.co_freevars for code in recording)


# -- monitor contract regressions ---------------------------------------------


class _ExplodingMonitor(BranchMonitor):
    """A deliberately-broken observer: its own bugs must surface as its
    own exceptions, not as guest-program VM faults."""

    def __init__(self, exc_type):
        self.exc_type = exc_type

    def replay(self, chunk):
        if self.exc_type is ZeroDivisionError:
            _ = 1 // 0
        elif self.exc_type is ValueError:
            _ = 1 << -1
        else:
            _ = [][1]


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize(
    "exc_type, fan_out",
    [
        pytest.param(ZeroDivisionError, False, id="ZeroDivisionError"),
        pytest.param(IndexError, False, id="IndexError"),
        pytest.param(ValueError, False, id="ValueError"),
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
    "negative shift count": """
        func main() {
            var i; var j = 0;
            for (i = 0; i < 20; i += 1) { if (i % 3 == 0) { j += 1; } }
            return 1 << (j - 8);
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


class BranchTableSpy(BranchMonitor):
    """Keeps the branch table ``on_run_start`` hands it."""

    def on_run_start(self, branch_table):
        self.branch_table = branch_table

    def replay(self, chunk):
        pass


@pytest.mark.parametrize("engine", ENGINES)
def test_monitors_are_handed_the_run_branch_table(engine):
    program = lowered(LOOPY)
    spy = BranchTableSpy()
    ENGINES[engine]().run(program, monitors=[spy])
    assert spy.branch_table == program.branch_table
    assert spy.branch_table and all(
        isinstance(branch_id, BranchId) for branch_id in spy.branch_table
    )


class ChunkLengths(BranchMonitor):
    """Records how many events every chunk it is handed holds."""

    def on_run_start(self, branch_table):
        self.lengths = []

    def replay(self, chunk):
        assert len(chunk) % 2 == 0
        self.lengths.append(len(chunk) // 2)


def test_chunks_never_exceed_the_chunk_size(runner):
    monitor = ChunkLengths()
    result = run_with_monitors(runner, "li", "6queens", [monitor])
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
    monitor = RunLengthMonitor(FixedPredictor(False))
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
    result = run_program(program)
    # The loop branch flips on exit, so predicting each branch's majority
    # direction gives one break plus the tail.
    monitor = RunLengthMonitor(
        ProfilePredictor(BranchProfile.from_run(result))
    )
    rerun = run_program(program, monitors=[monitor])
    assert sum(monitor.run_lengths) == rerun.instructions


# -- operand folding ------------------------------------------------------------


class ChunkRecorder(BranchMonitor):
    """Keeps every chunk item: each event's outcome and instruction count."""

    def on_run_start(self, branch_table):
        self.items = []

    def replay(self, chunk):
        self.items.extend(chunk)


def assert_agrees_with_legacy(program, data=b""):
    """Both variants return the legacy loop's result (or raise its fault),
    and the recording variant hands a monitor the legacy event stream."""
    outcomes = []
    for engine in ENGINES.values():
        recorder = ChunkRecorder()
        plain = _outcome(engine().run, program, data)
        monitored = _outcome(engine().run, program, data, [recorder])
        assert plain == monitored
        outcomes.append((plain, recorder.items))
    assert outcomes[0] == outcomes[1]
    return outcomes[0][0]


#: Where the operands of a binary op come from: a literal, or a register
#: set in an earlier block, which the element reads as it is.
SHAPES = ["literal, literal", "literal, register", "register, literal"]


def _binop_code(binop, shape, a, b):
    """Code that leaves ``a <binop> b`` in r2, its operands in ``shape``."""
    if shape == "literal, literal":
        code = [(CONST, 0, a), (CONST, 1, b)]
    elif shape == "literal, register":
        code = [(CONST, 1, b), (JMP, 2), (CONST, 0, a)]
    else:
        code = [(CONST, 0, a), (JMP, 2), (CONST, 1, b)]
    return code + [(BIN, binop, 2, 0, 1)]


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("a, b", [(-5, 3), (7, -2), (-6, -4), (9, 0)])
@pytest.mark.parametrize("binop", list(BinOp), ids=lambda op: op.name)
def test_negative_literals_in_every_binop_position_match_legacy(binop, a, b, shape):
    # Covers -5 << 3, x - -2, a negative count's fault, and DIV/MOD with a
    # negative literal on either side or a zero divisor (the _div/_mod path).
    code = _binop_code(int(binop), shape, a, b) + [(RET, 2)]
    assert_agrees_with_legacy(hand_built((0, 3, code)))


@pytest.mark.parametrize("folded", [True, False], ids=["literal", "register"])
@pytest.mark.parametrize("value", [-5, 0, 5])
@pytest.mark.parametrize("unop", list(UnOp), ids=lambda op: op.name)
def test_negative_literals_in_every_unop_position_match_legacy(unop, value, folded):
    # ~-5 and the negation of a negative literal among them.
    code = [(CONST, 0, value)] + ([] if folded else [(JMP, 2)])
    program = hand_built((0, 2, code + [(UN, int(unop), 1, 0), (RET, 1)]))
    assert assert_agrees_with_legacy(program)[0] == "ok"


ADD, SUB = int(BinOp.ADD), int(BinOp.SUB)

#: Element shapes the folding must get right, each checked against the
#: legacy loop (the name says what the program's exit code shows).
FOLDING_EDGE_CASES = {
    "copy read after its source was redefined": hand_built((0, 4, [
        (CONST, 0, 5),
        (JMP, 2),
        (MOV, 1, 0),                  # 2: a copy of a register
        (CONST, 0, 7),
        (MOV, 2, 1),                  # reads the copy raw: 5
        (BIN, SUB, 3, 1, 0),          # 5 - 7
        (BIN, ADD, 3, 3, 2),          # -2 + 5 = 3
        (RET, 3),
    ])),
    "copy tested by its branch after its source was redefined": hand_built((0, 2, [
        (CONST, 0, 5),
        (JMP, 2),
        (MOV, 1, 0),                  # 2: a copy of a register
        (CONST, 0, 0),
        (BR, 1, 5, 6, 0),
        (RET, 1),
        (RET, 0),
    ])),
    "self-copies": hand_built((0, 6, [
        (GETC, 0),
        (MOV, 0, 0),                  # of a register
        (CONST, 1, 3),
        (MOV, 1, 1),                  # of a literal
        (MOV, 2, 1),
        (MOV, 2, 2),
        (MOV, 4, 0),
        (CONST, 0, 1),
        (MOV, 4, 4),                  # of a copy whose source changed
        (BIN, ADD, 3, 0, 2),
        (BIN, ADD, 5, 3, 4),
        (RET, 5),
    ])),
    "dead constant next to one live into a successor": hand_built((0, 4, [
        (CONST, 0, 4),                # dead after the element
        (CONST, 1, 6),                # read by the next block
        (BIN, int(BinOp.MUL), 2, 0, 1),
        (JMP, 4),
        (BIN, ADD, 3, 1, 2),          # 6 + 24
        (RET, 3),
    ])),
    "literal and copied call arguments": hand_built(
        (0, 4, [
            (CONST, 0, -3),
            (MOV, 1, 0),
            (CONST, 2, 10),
            (CALL, 1, 3, (1, 2)),     # f1(-3, 10)
            (RET, 3),
        ]),
        (2, 3, [(BIN, SUB, 2, 0, 1), (RET, 2)]),
    ),
    "literal store value and addresses": hand_built((0, 3, [
        (CONST, 0, 2),
        (CONST, 1, -9),
        (STORE, 0, 1),
        (LOAD, 2, 0),
        (RET, 2),
    ])),
}


@pytest.mark.parametrize("name", sorted(FOLDING_EDGE_CASES))
def test_folding_edge_cases_match_legacy(name):
    assert assert_agrees_with_legacy(FOLDING_EDGE_CASES[name], b"A")[0] == "ok"


COMPARES = [BinOp.EQ, BinOp.NE, BinOp.LT, BinOp.LE, BinOp.GT, BinOp.GE]


@pytest.mark.parametrize("b", [4, 3, 2])
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("compare", COMPARES, ids=lambda op: op.name)
def test_fused_compare_with_a_literal_read_by_a_successor_matches_legacy(
    compare, shape, b
):
    # The compare becomes the branch's if test; each arm stores its 0/1
    # result because both successors read it.
    code = _binop_code(int(compare), shape, 3, b)
    end = len(code) + 1
    code += [(BR, 2, end, end + 2, 0), (BIN, ADD, 1, 2, 2), (RET, 1), (RET, 2)]
    program = hand_built((0, 3, code))
    source = _function_source(predecode(program), 0, False)
    assert "if r2:" not in source and "r2 = 1" in source
    assert assert_agrees_with_legacy(program)[0] == "ok"


def test_generator_folds_constants_and_drops_literal_address_checks():
    program = hand_built(
        (0, 1, [(RET, -1)]),
        (2, 11, [(CONST, 9, 3), (BIN, ADD, 10, 9, 1), (RET, 10)]),
        (0, 4, [(CONST, 2, 5), (LOAD, 3, 2), (RET, 3)]),
    )
    decoded = predecode(program)
    add = _function_source(decoded, 1, False)
    assert "r10 = 3 + r1" in add
    assert "r9 =" not in add
    load = _function_source(decoded, 2, False)
    assert "r3 = memory[5]" in load
    assert "bad address" not in load
    # The constant that is live into a successor keeps its store.
    edge_case = FOLDING_EDGE_CASES["dead constant next to one live into a successor"]
    dead_and_live = _function_source(predecode(edge_case), 0, False)
    assert "r1 = 6" in dead_and_live and "r0 =" not in dead_and_live


# -- counters derived from path counters ---------------------------------------

#: Programs whose counters the engine derives at run end from one counter
#: per path (see ``repro.vm.engine._Writer.leaf``), each with the shape
#: the derivation must get right, and the compiler configuration that
#: makes it.
DERIVED_COUNTERS = {
    # main -> outer -> via (direct), via -> middle (indirect), middle ->
    # leaf (direct): the halt leaves three direct frames and one indirect
    # frame open, after three whole rounds of the same calls returned.
    "halt in nested direct and indirect calls": ("""
        arr seen[4];
        func leaf(n) {
            var i;
            for (i = 0; i < n; i += 1) {
                if (n == 3 && i == 2) { putc(33); halt; }
                seen[i & 3] = seen[i & 3] + i;
            }
            return n + 1;
        }
        func middle(n) { return leaf(n) * 2; }
        func via(f, n) { var r = f(n); return r + 1; }
        func outer(n) { var g = &middle; return via(g, n) + 1; }
        func main() {
            var i; var total = 0;
            for (i = 0; i < 5; i += 1) { total += outer(i); }
            return total & 127;
        }
        """, RunConfig()),
    "select heavy": ("""
        arr a[16];
        func main() {
            var i; var lo = 1000; var hi = 0 - 1000; var s = 0; var v;
            for (i = 0; i < 16; i += 1) { a[i] = (i * 7 + 3) % 11 - 5; }
            for (i = 0; i < 16; i += 1) {
                v = a[i];
                if (v < lo) { lo = v; }
                if (v > hi) { hi = v; }
                if (v & 1) { s = s + v; } else { s = s - 1; }
            }
            putc((hi - lo) & 255);
            return s & 127;
        }
        """, RunConfig(if_conversion=True)),
    "jump heavy": ("""
        func main() {
            var i; var j; var n = 0;
            for (i = 0; i < 9; i += 1) {
                j = 0;
                while (1) {
                    j += 1;
                    if (j > i) { break; }
                    if (j & 1) { continue; }
                    switch (j % 4) {
                        case 0: n += 3; break;
                        case 2: n -= 1;
                        default: n += j;
                    }
                }
            }
            return n & 127;
        }
        """, RunConfig()),
}


def derived_counters_program(name):
    source, config = DERIVED_COUNTERS[name]
    return compile_source(source, name="test", config=config).lowered


@pytest.mark.parametrize("name", sorted(DERIVED_COUNTERS))
def test_derived_counters_match_legacy(name):
    """Both variants derive the legacy loop's branch counts and control
    events, and each program exercises the counter it is named for."""
    program = derived_counters_program(name)
    result = assert_agrees_with_legacy(program)
    assert result[0] == "ok"
    events = LegacyMachine().run(program).events
    if name.startswith("halt"):
        assert events.indirect_calls - events.indirect_returns == 1
        assert events.direct_calls - events.direct_returns == 3
        assert events.direct_returns > 0 and events.indirect_returns > 0
    elif name.startswith("select"):
        assert events.selects >= 48
    else:
        assert events.jumps >= 30


@pytest.mark.parametrize("name", sorted(DERIVED_COUNTERS))
def test_derived_counters_at_every_limit(name):
    """At every limit up to the run's count, wherever it falls on a path,
    both variants stop with the limit error exactly when the legacy loop
    does, and return its result at the full count."""
    program = derived_counters_program(name)
    full = LegacyMachine().run(program).instructions
    assert 100 < full < 2_000
    for limit in range(full + 1):
        legacy = _outcome(LegacyMachine(max_instructions=limit).run, program)
        for monitors in ((), [OutcomeRecorder()]):
            fast = _outcome(
                FastEngine(max_instructions=limit).run, program, b"", monitors
            )
            assert fast[0] == legacy[0], (name, limit, bool(monitors))
    assert fast == legacy


#: Counter updates that only the path counters carry now.
_PER_EVENT_COUNTER = re.compile(
    r"\b(btaken\[|bnot\[|jumps \+=|selects \+=|direct_calls|direct_returns)"
)


@pytest.mark.parametrize("workload_name", registry.workload_names())
def test_generated_code_counts_paths_not_events(workload_name):
    """No generated function, in either variant, bumps a per-branch or
    per-event counter other than the indirect calls' own: each bumps one
    counter per path."""
    program = lowered(registry.get_workload(workload_name).source, workload_name)
    decoded = predecode(program)
    for index in range(len(decoded.functions)):
        for recording in (False, True):
            source = _function_source(decoded, index, recording)
            found = _PER_EVENT_COUNTER.search(source)
            assert found is None, (workload_name, index, recording, found)
    assert decoded.paths
