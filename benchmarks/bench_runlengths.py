"""Benchmark: run-length distributions between mispredicted branches.

Re-simulates its programs with a live monitor — each round on a fresh
runner, whose memo is empty — so it also measures the VM's
monitored-execution throughput.
"""
from repro.core.runner import WorkloadRunner
from repro.experiments import runlengths

PROGRAMS = [("li", "sieve1"), ("doduc", "small"), ("lfk", "default")]


def test_runlength_distribution(benchmark):
    result = benchmark.pedantic(
        runlengths.run,
        setup=lambda: ((WorkloadRunner(),), {"programs": PROGRAMS}),
        iterations=1,
        rounds=2,
    )
    assert all(row.stats["cv"] > 0.3 for row in result.rows)
    print()
    print(result.format_text())
