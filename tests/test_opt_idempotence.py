"""Optimizer fixpoint and invariant-preservation properties.

Two contracts:

1. ``optimize_module`` is idempotent: running the pipeline a second time
   over an already-optimized module changes nothing, byte-for-byte, for
   every registered workload under both measurement configurations.
2. Every individual pass preserves ``validate_module`` cleanliness (and
   freedom from error-severity lint findings), property-tested over seeded
   ``sourcegen.mf_module`` programs rather than hand-picked examples.
"""
import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.lint import lint_errors
from repro.compiler import CompileOptions, compile_source
from repro.core.runner import RunConfig
from repro.ir.printer import format_module
from repro.ir.validate import validate_module
from repro.opt.globalconst import constant_globals
from repro.opt.pipeline import OptOptions, PASSES, optimize_module
from repro.workloads.registry import all_workloads
from repro.workloads.sourcegen import mf_module


@pytest.mark.parametrize("dce", [False, True], ids=["paper", "dce"])
def test_optimize_module_twice_is_byte_identical(runner, dce):
    options = OptOptions.with_dce() if dce else OptOptions.classical()
    for workload in all_workloads():
        module = runner.compiled(workload.name, RunConfig(dce=dce)).module
        before = format_module(module)
        clone = copy.deepcopy(module)
        optimize_module(clone, options)
        after = format_module(clone)
        assert after == before, (
            f"{workload.name}: second optimize_module run changed the IR"
        )


@given(seed=st.integers(min_value=0, max_value=10**6))
@settings(max_examples=25, deadline=None)
def test_each_pass_preserves_validity(seed):
    source = mf_module(seed, functions=3)
    program = compile_source(source, options=CompileOptions.unoptimized())
    module = program.module
    options = OptOptions.classical()
    const_globals = constant_globals(module)
    for pipeline_pass in PASSES:
        if not pipeline_pass.enabled(options):
            continue
        for func in module.functions:
            pipeline_pass.run(func, const_globals)
        validate_module(module)  # raises on a structural violation
        errors = lint_errors(module)
        assert errors == [], (
            f"seed {seed}: pass {pipeline_pass.name!r} introduced "
            f"lint errors: {[str(e) for e in errors]}"
        )


@given(seed=st.integers(min_value=0, max_value=10**6))
@settings(max_examples=10, deadline=None)
def test_generated_modules_optimize_idempotently(seed):
    source = mf_module(seed, functions=3)
    module = compile_source(source).module  # paper-default pipeline
    before = format_module(module)
    optimize_module(module, OptOptions.classical())
    assert format_module(module) == before


def test_mf_module_is_deterministic():
    assert mf_module(42) == mf_module(42)
    assert mf_module(42) != mf_module(43)
