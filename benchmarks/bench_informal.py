"""Benchmarks: the paper's §3 informal observations, regenerated."""
import pytest

from repro.experiments import informal


@pytest.fixture(scope="module")
def answers(runner):
    """The sections' runs, fetched once: each benchmark times only its
    section's aggregation over them."""
    batch = informal.requests()
    return dict(zip(batch, runner.run_many(batch)))


def test_combine_modes(benchmark, answers):
    result = benchmark(informal.combine_modes, answers)
    assert result.mean_fraction("polling") <= result.mean_fraction("scaled") + 1e-9
    print()
    print(result.format_text())


def test_heuristics(benchmark, runner, answers):
    result = benchmark(informal.heuristics, runner, answers)
    assert result.mean_loop_factor() > 1.4
    print()
    print(result.format_text())


def test_percent_taken(benchmark, answers):
    result = benchmark(informal.percent_taken, answers)
    spreads = {row.program: row.spread for row in result.rows}
    assert spreads["spice2g6"] > 0.15
    print()
    print(result.format_text())


def test_compress_cross(benchmark, answers):
    result = benchmark(informal.compress_cross, answers)
    assert min(result.fraction_by_target.values()) < 0.75
    print()
    print(result.format_text())


def test_wrong_measure(benchmark, answers):
    result = benchmark(informal.wrong_measure, answers)
    assert result.find("fpppp", "8atoms").branch_density > 100
    print()
    print(result.format_text())
