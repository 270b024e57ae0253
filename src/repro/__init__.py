"""repro: a reproduction of Fisher & Freudenberger (ASPLOS 1992),
"Predicting Conditional Branch Directions From Previous Runs of a Program".

Quickstart::

    from repro import compile_source, run_program

    program = compile_source(source_text, name="demo")
    result = run_program(program.lowered, input_data=b"...")
    print(result.instructions, result.percent_taken())

See :mod:`repro.core` for the profile-feedback workflow the paper studies and
:mod:`repro.experiments` for the table/figure reproductions.
"""
from repro.compiler import CompiledProgram, RunConfig, compile_source
from repro.vm.machine import run_program

__version__ = "1.0.0"

__all__ = [
    "CompiledProgram",
    "RunConfig",
    "__version__",
    "compile_source",
    "run_program",
]
