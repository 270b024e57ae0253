"""The compiler driver: MF source text -> executable program.

Ties together the front end (:mod:`repro.lang`), the optimizer
(:mod:`repro.opt`) and lowering (:mod:`repro.ir.lower`).  The default
configuration reproduces the paper's compiler setup (classical optimizations
on, dead code elimination off, simple-``if``-to-``select`` conversion on).
"""
from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Tuple

from repro.ir.cfg import Module
from repro.ir.instructions import BranchId
from repro.ir.lower import LoweredProgram, lower_module
from repro.ir.validate import validate_module
from repro.lang.codegen import generate_module
from repro.lang.directives import parse_directives
from repro.lang.parser import parse_source
from repro.lang.sema import analyze
from repro.opt.inline import inline_module
from repro.opt.pipeline import OptOptions, optimize_module


@dataclasses.dataclass
class CompileOptions:
    """Knobs for one compilation.

    ``inline`` enables procedure inlining of small leaf functions before
    optimization (the Multiflow compiler's automatic-inlining switch; off
    in all of the paper's measurements).
    """

    enable_select: bool = True
    inline: bool = False
    opt: OptOptions = dataclasses.field(default_factory=OptOptions.classical)

    @classmethod
    def paper_default(cls) -> "CompileOptions":
        """The configuration used for all of the paper's measurements."""
        return cls()

    @classmethod
    def with_dce(cls) -> "CompileOptions":
        """As the default, but with dead code elimination (Table 1)."""
        return cls(opt=OptOptions.with_dce())

    @classmethod
    def unoptimized(cls) -> "CompileOptions":
        """No optimization, no select conversion (debugging baseline)."""
        return cls(enable_select=False, opt=OptOptions.none())


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

    def compile_options(self) -> CompileOptions:
        if self.dce:
            opt = OptOptions.with_dce()
        else:
            opt = OptOptions.classical()
        opt.if_conversion = self.if_conversion
        return CompileOptions(inline=self.inline, opt=opt)


@dataclasses.dataclass
class CompiledProgram:
    """The result of compiling one MF source file."""

    name: str
    module: Module
    lowered: LoweredProgram
    #: IFPROB directive counts parsed from the source, if any were present.
    feedback: Dict[BranchId, Tuple[int, int]]
    options: CompileOptions


def compile_source(
    source: str,
    name: str = "program",
    options: Optional[CompileOptions] = None,
) -> CompiledProgram:
    """Compile MF source text into an executable :class:`CompiledProgram`."""
    if options is None:
        options = CompileOptions.paper_default()
    program_ast = parse_source(source)
    info = analyze(program_ast)
    module = generate_module(
        program_ast, name=name, info=info, enable_select=options.enable_select
    )
    if options.inline:
        inline_module(module)
    optimize_module(module, options.opt)
    validate_module(module)
    lowered = lower_module(module, validate=False)
    feedback = parse_directives(program_ast.directives)
    return CompiledProgram(
        name=name,
        module=module,
        lowered=lowered,
        feedback=feedback,
        options=options,
    )
