"""Benchmark: dynamic (1-bit/2-bit) vs static prediction comparison.

Unlike the other benches, this one genuinely re-simulates — dynamic
predictors observe the live outcome stream, and each round fetches the
monitored runs on a fresh runner, whose memo is empty — so it doubles as
a VM throughput benchmark on a mid-sized program set.
"""
from repro.core.runner import WorkloadRunner
from repro.experiments import informal

PROGRAMS = ["lfk", "doduc"]

#: The comparison's plain and monitored runs of ``PROGRAMS``.
REQUESTS = [
    request for request in informal.requests() if request.workload in PROGRAMS
]


def _comparison():
    runner = WorkloadRunner()
    return informal.dynamic_comparison(
        dict(zip(REQUESTS, runner.run_many(REQUESTS)))
    )


def test_dynamic_comparison(benchmark):
    result = benchmark.pedantic(_comparison, iterations=1, rounds=2)
    assert {row.program for row in result.rows} == set(PROGRAMS)
    for row in result.rows:
        assert row.two_bit_accuracy > 0.8
    print()
    print(result.format_text())
