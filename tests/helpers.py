"""Shared test helpers."""
from __future__ import annotations

import dataclasses
import itertools
import random
from typing import List, Union

from repro.compiler import CompiledProgram, RunConfig, compile_source
from repro.ir.lower import lower_module
from repro.ir.validate import validate_module
from repro.lang.codegen import generate_module
from repro.lang.directives import parse_directives
from repro.lang.parser import parse_source
from repro.lang.sema import analyze
from repro.opt.pipeline import optimize_module
from repro.prediction.combine import combine_profiles
from repro.profiling.branch_profile import BranchProfile
from repro.vm.counters import RunResult
from repro.vm.machine import run_program
from repro.workloads.registry import get_workload


def compile_reference(
    source: str, *, select: bool, optimize: bool, name: str = "test"
) -> CompiledProgram:
    """A reference compile that no ``RunConfig`` selects.

    The differential tests compare the experiments' configurations against
    an unoptimized compile and one with ``if``-to-``select`` conversion
    off.  This runs ``compile_source``'s stages in its order, with
    ``select`` passed to codegen and the optimizer's classical passes
    (``RunConfig()``'s) run only if ``optimize`` is set.
    """
    program_ast = parse_source(source)
    info = analyze(program_ast)
    module = generate_module(
        program_ast, name=name, info=info, enable_select=select
    )
    if optimize:
        optimize_module(module)
    validate_module(module)
    lowered = lower_module(module, validate=False)
    feedback = parse_directives(program_ast.directives)
    return CompiledProgram(
        name=name,
        module=module,
        lowered=lowered,
        feedback=feedback,
        config=RunConfig(),
    )


@dataclasses.dataclass(frozen=True)
class Reference:
    """``compile_reference``'s keywords, usable wherever a RunConfig is."""

    select: bool
    optimize: bool


#: No optimization and no select conversion: the debugging baseline.
UNOPTIMIZED = Reference(select=False, optimize=False)
#: The paper's classical optimizations with select conversion off.
SELECT_OFF = Reference(select=False, optimize=True)

Config = Union[RunConfig, Reference]


#: Every ``RunConfig``, the combinations no experiment runs included.
RUN_CONFIGS = [
    RunConfig(dce=dce, inline=inline, if_conversion=if_conversion)
    for dce, inline, if_conversion in itertools.product((False, True), repeat=3)
]

#: Every compiler configuration the experiments run.
EXPERIMENT_CONFIGS = [
    RunConfig(),
    RunConfig(dce=True),
    RunConfig(inline=True),
    RunConfig(if_conversion=True),
]


def compile_with(
    source: str, config: Config = RunConfig(), name: str = "test"
) -> CompiledProgram:
    """Compile under a RunConfig or a reference configuration."""
    if isinstance(config, Reference):
        return compile_reference(
            source, select=config.select, optimize=config.optimize, name=name
        )
    return compile_source(source, name=name, config=config)


def run_with_monitors(runner, workload: str, dataset: str, monitors) -> RunResult:
    """Run a workload's dataset with monitor objects attached, for tests
    that need the monitors themselves (reused across runs, or a live
    predictor); the runner only supplies the compiled program, and the
    run is neither memoized nor cached."""
    return run_program(
        runner.compiled(workload).lowered,
        input_data=get_workload(workload).dataset(dataset).data,
        monitors=monitors,
    )


def combine_without(
    profiles: List[BranchProfile], exclude_index: int, mode: str
) -> BranchProfile:
    """The leave-one-out oracle: ``combine_profiles`` over every profile
    but ``profiles[exclude_index]``, independent of ``database_predict``."""
    rest = profiles[:exclude_index] + profiles[exclude_index + 1 :]
    return combine_profiles(rest, mode=mode)


def compile_and_run(
    source: str,
    input_data: bytes = b"",
    config: Config = RunConfig(),
    name: str = "test",
) -> RunResult:
    """Compile MF source and run it, returning the RunResult."""
    program = compile_with(source, config, name=name)
    return run_program(program.lowered, input_data=input_data)


def run_main(source: str, input_data: bytes = b"", **kwargs) -> int:
    """Compile, run, and return main's exit code."""
    return compile_and_run(source, input_data=input_data, **kwargs).exit_code


def compile_only(source: str, name: str = "test", **kwargs) -> CompiledProgram:
    """Compile MF source without running it."""
    return compile_source(source, name=name, **kwargs)


_MF_FRAGMENTS = [
    # Scan-accumulate with a clamp guard (the C fragment family 0).
    """func {name}(n) {{
    var i = 0; var acc = {m1};
    while (i < n) {{
        acc = acc + getc() * {m2};
        if (acc > {lim}) {{ acc = acc % {mod}; }}
        i = i + 1;
    }}
    return acc;
}}""",
    # Nested regular loops (the FORTRAN family).
    """func {name}(n, m) {{
    var i; var j; var acc = 0;
    for (i = 0; i < n; i += 1) {{
        for (j = 0; j < m; j += 1) {{
            acc = acc + (i * {m1} + j) % {mod};
        }}
    }}
    return acc;
}}""",
    # Self-recursion with a max-of-children shape (C family 3).
    """func {name}(node) {{
    if (node <= 0) {{ return 0; }}
    var left = {name}(node - {m1});
    var right = {name}(node - {m2});
    if (left > right) {{ return left + 1; }}
    return right + 1;
}}""",
    # Character-driven state machine with an if/else ladder (C family 4).
    """func {name}(len) {{
    var state = {m1}; var i = 0;
    while (i < len) {{
        var c = getc();
        if (c == {m3}) {{ state = state * 2 + 1; }}
        else {{ if (c > {m2}) {{ state = state + c; }}
                else {{ state = state - 1; }} }}
        i = i + 1;
    }}
    return state;
}}""",
    # Bounded probe loop with wraparound (C family 1).
    """func {name}(key, size) {{
    var idx = key % {mod};
    var steps = 0;
    while (steps < size) {{
        if (idx == key) {{ return idx; }}
        idx = idx + 1;
        if (idx >= size) {{ idx = 0; }}
        steps = steps + 1;
    }}
    return idx;
}}""",
]

#: Parameter counts of the fragments above, used to synthesize call sites.
_MF_ARITY = [1, 2, 1, 1, 2]


def mf_module(seed: int, functions: int = 5) -> str:
    """A seeded, always-valid MF module for compiler property tests.

    Exercises the same control shapes as the C/FORTRAN dataset fragments
    of ``repro.workloads.sourcegen`` (scan loops, clamps, nested loops,
    recursion, if/else ladders, probe loops with wraparound) but in MF
    syntax, so the optimizer and the analysis framework can be
    property-tested over realistic CFGs rather than hand-picked examples.
    """
    rng = random.Random(seed)
    parts: List[str] = [f"// module p{seed}: generated MF control-flow shapes"]
    knob = rng.randint(0, 3)
    parts.append(f"var knob = {knob};")
    calls: List[str] = []
    for index in range(functions):
        which = rng.randrange(len(_MF_FRAGMENTS))
        name = f"gen{seed % 1000}_{index}"
        parts.append(
            _MF_FRAGMENTS[which].format(
                name=name,
                m1=rng.randint(2, 9),
                m2=rng.randint(1, 90),
                m3=rng.randint(91, 200),
                lim=rng.randint(100, 4000),
                mod=rng.randint(7, 97),
            )
        )
        args = ", ".join(
            str(rng.randint(1, 6)) for _ in range(_MF_ARITY[which])
        )
        calls.append(f"    total = total + {name}({args});")
    parts.append(
        "func main() {\n"
        "    var total = 0;\n"
        + "\n".join(calls)
        + "\n    if (knob) { total = total + 1; }\n"
        "    return total;\n"
        "}"
    )
    return "\n\n".join(parts) + "\n"
