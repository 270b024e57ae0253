"""Shared test helpers."""
from __future__ import annotations

import dataclasses
from typing import Union

from repro.compiler import CompiledProgram, RunConfig, compile_source
from repro.ir.lower import lower_module
from repro.ir.validate import validate_module
from repro.lang.codegen import generate_module
from repro.lang.directives import parse_directives
from repro.lang.parser import parse_source
from repro.lang.sema import analyze
from repro.opt.pipeline import optimize_module
from repro.vm.counters import RunResult
from repro.vm.machine import run_program


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
