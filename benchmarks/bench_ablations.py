"""Benchmarks: the compiler-switch ablations DESIGN.md calls out."""
import pytest

from repro.experiments import ablations


@pytest.fixture(scope="module")
def runs(runner):
    batch = ablations.requests()
    return dict(zip(batch, runner.run_many(batch)))


def test_inlining_ablation(benchmark, runs):
    result = benchmark(ablations.inlining, runs)
    assert any(row.calls_inlined < row.calls_base for row in result.rows)
    print()
    print(result.format_text())


def test_if_conversion_ablation(benchmark, runs):
    result = benchmark(ablations.if_conversion, runs)
    for row in result.rows:
        assert row.branch_execs_converted <= row.branch_execs_base
    print()
    print(result.format_text())
