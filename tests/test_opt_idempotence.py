"""Optimizer fixpoint and invariant-preservation properties.

Three contracts:

1. ``optimize_module`` is idempotent: running the pipeline a second time
   over an already-optimized module changes nothing, byte-for-byte, for
   every registered workload under both measurement configurations.
2. It stops at its real fixpoint, below ``max_iterations``, for every
   workload under every configuration the experiments use, and stopping
   there gives the same module as running every iteration.
3. Every individual pass preserves ``validate_module`` cleanliness (and
   freedom from error-severity lint findings), property-tested over seeded
   ``sourcegen.mf_module`` programs rather than hand-picked examples.
"""
import collections
import copy
import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.lint import lint_errors
from repro.compiler import CompileOptions, compile_source
from repro.core.runner import RunConfig
from repro.ir.lower import lower_module
from repro.ir.printer import format_module
from repro.ir.validate import validate_module
from repro.opt import pipeline
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


#: Every compiler configuration the experiments run.
EXPERIMENT_CONFIGS = [
    RunConfig(),
    RunConfig(dce=True),
    RunConfig(inline=True),
    RunConfig(if_conversion=True),
]


@pytest.mark.parametrize(
    "config", EXPERIMENT_CONFIGS, ids=[config.tag() for config in EXPERIMENT_CONFIGS]
)
def test_every_workload_stops_below_the_iteration_cap(config, monkeypatch):
    # Each iteration runs every enabled pass once per function, so the
    # iteration count is the most calls any one function saw.
    calls = collections.Counter()
    index = next(
        position for position, pipeline_pass in enumerate(PASSES)
        if pipeline_pass.name == "constant-folding"
    )
    folding = PASSES[index]

    def counted(func, const_globals):
        calls[func.name] += 1
        return folding.run(func, const_globals)

    patched = list(PASSES)
    patched[index] = dataclasses.replace(folding, run=counted)
    monkeypatch.setattr(pipeline, "PASSES", patched)
    options = config.compile_options()
    for workload in all_workloads():
        calls.clear()
        compile_source(workload.source, name=workload.name, options=options)
        iterations = max(calls.values())
        assert 0 < iterations < options.opt.max_iterations, (
            workload.name, iterations,
        )


def _every_iteration(module, options):
    """The pipeline with no early stop: ``max_iterations`` full rounds."""
    for _ in range(options.max_iterations):
        const_globals = (
            constant_globals(module) if options.global_constants else {}
        )
        for pipeline_pass in PASSES:
            if pipeline_pass.enabled(options):
                for func in module.functions:
                    pipeline_pass.run(func, const_globals)


@given(
    seed=st.integers(min_value=0, max_value=10**6),
    config=st.sampled_from(EXPERIMENT_CONFIGS),
)
@settings(max_examples=25, deadline=None)
def test_early_stop_matches_every_iteration(seed, config):
    options = config.compile_options()
    unoptimized = dataclasses.replace(options, opt=OptOptions.none())
    module = compile_source(mf_module(seed), options=unoptimized).module
    full = copy.deepcopy(module)
    optimize_module(module, options.opt)
    _every_iteration(full, options.opt)
    assert format_module(module) == format_module(full)
    assert lower_module(module) == lower_module(full)


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
