"""The compiler driver: MF source text -> executable program.

Ties together the front end (:mod:`repro.lang`), the optimizer
(:mod:`repro.opt`) and lowering (:mod:`repro.ir.lower`).  The default
configuration reproduces the paper's compiler setup (classical optimizations
on, dead code elimination off, simple-``if``-to-``select`` conversion on).
"""
from __future__ import annotations

import dataclasses
from typing import Dict, Tuple

from repro.ir.cfg import Module
from repro.ir.instructions import BranchId
from repro.ir.lower import LoweredProgram, lower_module
from repro.ir.validate import validate_module
from repro.lang.codegen import generate_module
from repro.lang.directives import parse_directives
from repro.lang.parser import parse_source
from repro.lang.sema import analyze
from repro.opt.inline import inline_module
from repro.opt.pipeline import optimize_module


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Which compiler configuration a run uses.

    The default is the paper's measurement configuration; ``dce`` is the
    Table 1 variant; ``inline`` and ``if_conversion`` drive the ablation
    experiments for the switches the paper's compiler had but kept off.
    """

    dce: bool = False
    inline: bool = False
    if_conversion: bool = False

    def tag(self) -> str:
        return (
            f"dce={self.dce}|inline={self.inline}|ifconv={self.if_conversion}"
        )


@dataclasses.dataclass
class CompiledProgram:
    """The result of compiling one MF source file."""

    name: str
    module: Module
    lowered: LoweredProgram
    #: IFPROB directive counts parsed from the source, if any were present.
    feedback: Dict[BranchId, Tuple[int, int]]
    config: RunConfig


def compile_source(
    source: str, name: str = "program", config: RunConfig = RunConfig()
) -> CompiledProgram:
    """Compile MF source text into an executable :class:`CompiledProgram`."""
    program_ast = parse_source(source)
    info = analyze(program_ast)
    module = generate_module(program_ast, name=name, info=info)
    if config.inline:
        inline_module(module)
    optimize_module(module, dce=config.dce, if_conversion=config.if_conversion)
    validate_module(module)
    lowered = lower_module(module, validate=False)
    feedback = parse_directives(program_ast.directives)
    return CompiledProgram(
        name=name,
        module=module,
        lowered=lowered,
        feedback=feedback,
        config=config,
    )


def renamed(program: CompiledProgram, name: str) -> CompiledProgram:
    """``program`` as compiling its source under ``name`` would give it.

    The module name is the only trace a program's name leaves on its
    compile, so the copy gets a renamed copy of the module and a lowered
    program that shares the (never mutated) code of ``program``'s but
    carries the new name and an empty engine cache.
    """
    return dataclasses.replace(
        program,
        name=name,
        module=program.module.copy(name),
        lowered=dataclasses.replace(program.lowered, name=name, predecoded=None),
        feedback=dict(program.feedback),
    )
