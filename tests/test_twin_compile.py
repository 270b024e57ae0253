"""Workloads that share a source compile once per runner.

gcc and mfcom share one MF source, and so do compress and uncompress.
``WorkloadRunner.compiled`` compiles the first of a pair it meets and
gives the second a renamed copy (``repro.compiler.renamed``).  The copy
must be what a fresh compile under the second name gives, and run the
same.
"""
import pytest

from repro.compiler import RunConfig, compile_source
from repro.core import runner as runner_module
from repro.core.parallel import RunRequest
from repro.core.runner import WorkloadRunner
from repro.ir.printer import format_module
from repro.vm.machine import run_program
from repro.workloads.registry import all_workloads, get_workload

from tests.helpers import RUN_CONFIGS

#: (compiled first, derived from it) for each shared source.
TWINS = [("gcc", "mfcom"), ("compress", "uncompress")]


def test_the_twins_are_the_only_shared_sources():
    by_source = {}
    for workload in all_workloads():
        by_source.setdefault(workload.source, []).append(workload.name)
    shared = sorted(names for names in by_source.values() if len(names) > 1)
    assert shared == sorted(list(pair) for pair in TWINS)


@pytest.mark.parametrize("config", RUN_CONFIGS, ids=RunConfig.tag)
def test_a_derived_twin_equals_a_fresh_compile(config):
    runner = WorkloadRunner(cache_dir=None)
    for first, second in TWINS:
        original = runner.compiled(first, config)
        derived = runner.compiled(second, config)
        fresh = compile_source(
            get_workload(second).source, name=second, config=config
        )
        assert format_module(derived.module) == format_module(fresh.module)
        assert derived.lowered == fresh.lowered
        assert derived.feedback == fresh.feedback
        assert derived.config == config
        assert (
            derived.name, derived.module.name, derived.lowered.name
        ) == (second, second, second)
        assert format_module(original.module) == format_module(
            compile_source(
                get_workload(first).source, name=first, config=config
            ).module
        )
        instructions = {
            id(instr)
            for func in original.module.functions
            for block in func.blocks
            for instr in block.instrs
        }
        assert not any(
            id(instr) in instructions
            for func in derived.module.functions
            for block in func.blocks
            for instr in block.instrs
        ), "the derived module must not share IR objects with its twin"


@pytest.mark.parametrize("first, second", TWINS)
def test_a_derived_twin_runs_like_a_fresh_compile(first, second):
    runner = WorkloadRunner(cache_dir=None)
    for name in (first, second):
        workload = get_workload(name)
        dataset = min(workload.datasets, key=lambda dataset: len(dataset.data))
        [result] = runner.run_many([RunRequest(name, dataset.name)])
        fresh = compile_source(workload.source, name=name).lowered
        assert result == run_program(fresh, input_data=dataset.data)
        assert result.program == name
        # Each twin's engine cache is its own, built for its own name.
        lowered = runner.compiled(name).lowered
        assert lowered.predecoded.program is lowered


def test_each_shared_source_compiles_once_per_runner(monkeypatch):
    sources = []

    def counted(source, name="program", config=RunConfig()):
        sources.append(name)
        return compile_source(source, name=name, config=config)

    monkeypatch.setattr(runner_module, "compile_source", counted)
    runner = WorkloadRunner(cache_dir=None)
    for pair in TWINS:
        for name in pair:
            runner.compiled(name)
    assert sources == [first for first, _ in TWINS]
    runner.compiled("mfcom", RunConfig(dce=True))
    assert sources[-1] == "mfcom", "each configuration compiles on its own"
    # Per runner, never per process: a new runner compiles again.
    WorkloadRunner(cache_dir=None).compiled("uncompress")
    assert sources[-1] == "uncompress"
