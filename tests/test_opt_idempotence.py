"""Optimizer fixpoint and invariant-preservation properties.

Four contracts:

1. ``optimize_module`` is idempotent: running the pipeline a second time
   over an already-optimized module changes nothing, byte-for-byte, for
   every registered workload under both measurement configurations.
2. It stops at its real fixpoint, below ``MAX_ITERATIONS``, for every
   workload under every configuration the experiments use, and stopping
   there gives the same module as running every iteration.
3. Every individual pass preserves ``validate_module`` cleanliness (and
   freedom from error-severity lint findings), property-tested over seeded
   ``tests.helpers.mf_module`` programs rather than hand-picked examples.
4. Every pass is honest: it reports ``changed`` exactly when it changed
   the printed function, on every workload and on seeded ``mf_module``
   programs under every experiment configuration.
"""
import collections
import copy
import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.lint import lint_errors
from repro.compiler import RunConfig, compile_source
from repro.ir.lower import lower_module
from repro.ir.printer import format_function, format_module
from repro.ir.validate import validate_module
from repro.opt import pipeline
from repro.opt.globalconst import constant_globals
from repro.opt.inline import inline_module
from repro.opt.pipeline import MAX_ITERATIONS, PASSES, optimize_module
from repro.workloads.registry import all_workloads

from tests.helpers import EXPERIMENT_CONFIGS, compile_reference, mf_module


@pytest.mark.parametrize("dce", [False, True], ids=["paper", "dce"])
def test_optimize_module_twice_is_byte_identical(runner, dce):
    for workload in all_workloads():
        module = runner.compiled(workload.name, RunConfig(dce=dce)).module
        before = format_module(module)
        clone = copy.deepcopy(module)
        optimize_module(clone, dce=dce)
        after = format_module(clone)
        assert after == before, (
            f"{workload.name}: second optimize_module run changed the IR"
        )


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
    for workload in all_workloads():
        calls.clear()
        compile_source(workload.source, name=workload.name, config=config)
        iterations = max(calls.values())
        assert 0 < iterations < MAX_ITERATIONS, (workload.name, iterations)


def _enabled_passes(config):
    """The ``PASSES`` entries ``config`` runs: each entry's switch is named
    after the RunConfig field that turns it on."""
    return [
        entry for entry in PASSES
        if entry.switch is None or getattr(config, entry.switch)
    ]


def _every_iteration(module, config):
    """The pipeline with no early stop: ``MAX_ITERATIONS`` full rounds."""
    for _ in range(MAX_ITERATIONS):
        const_globals = constant_globals(module)
        for pipeline_pass in _enabled_passes(config):
            for func in module.functions:
                pipeline_pass.run(func, const_globals)


def _unoptimized(source, config):
    """``compile_source``'s module for ``config`` just before optimizing."""
    module = compile_reference(source, select=True, optimize=False).module
    if config.inline:
        inline_module(module)
    return module


@given(
    seed=st.integers(min_value=0, max_value=10**6),
    config=st.sampled_from(EXPERIMENT_CONFIGS),
)
@settings(max_examples=25, deadline=None)
def test_early_stop_matches_every_iteration(seed, config):
    module = _unoptimized(mf_module(seed), config)
    full = copy.deepcopy(module)
    optimize_module(module, dce=config.dce, if_conversion=config.if_conversion)
    _every_iteration(full, config)
    assert format_module(module) == format_module(full)
    assert lower_module(module) == lower_module(full)


@given(seed=st.integers(min_value=0, max_value=10**6))
@settings(max_examples=25, deadline=None)
def test_each_pass_preserves_validity(seed):
    source = mf_module(seed, functions=3)
    module = compile_reference(source, select=False, optimize=False).module
    const_globals = constant_globals(module)
    for pipeline_pass in _enabled_passes(RunConfig()):
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
    optimize_module(module)
    assert format_module(module) == before


def _honesty_checked(monkeypatch):
    """Wrap every pass so it records (pass, function) wherever its
    ``changed`` disagrees with its effect on the printed function."""
    lies = []

    def checked(entry):
        def run(func, const_globals):
            before = format_function(func)
            changed = entry.run(func, const_globals)
            if changed != (format_function(func) != before):
                lies.append((entry.name, func.name, changed))
            return changed

        return dataclasses.replace(entry, run=run)

    monkeypatch.setattr(pipeline, "PASSES", [checked(entry) for entry in PASSES])
    return lies


@pytest.mark.parametrize(
    "config", EXPERIMENT_CONFIGS, ids=[config.tag() for config in EXPERIMENT_CONFIGS]
)
def test_every_pass_reports_changed_honestly_on_workloads(config, monkeypatch):
    lies = _honesty_checked(monkeypatch)
    for workload in all_workloads():
        compile_source(workload.source, name=workload.name, config=config)
        assert lies == [], workload.name


@given(
    seed=st.integers(min_value=0, max_value=10**6),
    config=st.sampled_from(EXPERIMENT_CONFIGS),
)
@settings(max_examples=25, deadline=None)
def test_every_pass_reports_changed_honestly(seed, config):
    with pytest.MonkeyPatch.context() as monkeypatch:
        lies = _honesty_checked(monkeypatch)
        compile_source(mf_module(seed), config=config)
    assert lies == [], seed


def test_mf_module_is_deterministic():
    assert mf_module(42) == mf_module(42)
    assert mf_module(42) != mf_module(43)
