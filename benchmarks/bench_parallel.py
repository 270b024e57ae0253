"""Benchmark: process-pool fan-out speedup over the serial runner path.

Every sweep runs on a fresh runner and a cold cache, so the measured
work is the actual simulations; the triples are the slower sweeps so
worker start-up is amortized the way it is in the real experiment
drivers.  Each side is measured ``ROUNDS`` times, alternating, and the
fastest serial sweep is compared with the fastest ``jobs=2`` sweep: on a
shared host one sweep per side lets neighbour load decide the ratio.
The speedup assertion needs a second core — on single-core machines the
run still checks serial/parallel equivalence.
"""
import os
import time

from repro.core.cache import run_result_to_dict
from repro.core.parallel import RunRequest
from repro.core.runner import WorkloadRunner

#: A 4-triple sweep of the heavier workloads.
SWEEP = [
    RunRequest("espresso", "bca"),
    RunRequest("espresso", "cps"),
    RunRequest("espresso", "tial"),
    RunRequest("li", "6queens"),
]

#: Sweeps per side.
ROUNDS = 3


def _timed_sweep(cache_dir, jobs):
    runner = WorkloadRunner(cache_dir=cache_dir, jobs=jobs)
    started = time.perf_counter()
    results = runner.run_many(SWEEP)
    return time.perf_counter() - started, results


def test_smoke_parallel_fanout_speedup(tmp_path):
    serial_times, fanout_times = [], []
    for index in range(ROUNDS):
        serial_time, serial = _timed_sweep(str(tmp_path / f"serial{index}"), jobs=1)
        fanout_time, fanout = _timed_sweep(str(tmp_path / f"fanout{index}"), jobs=2)
        serial_times.append(serial_time)
        fanout_times.append(fanout_time)

        assert [run_result_to_dict(r) for r in serial] == [
            run_result_to_dict(r) for r in fanout
        ]

    serial_time, fanout_time = min(serial_times), min(fanout_times)
    speedup = serial_time / fanout_time
    print(
        f"\n{len(SWEEP)}-triple sweep, best of {ROUNDS}: serial "
        f"{serial_time:.2f}s, jobs=2 {fanout_time:.2f}s, speedup "
        f"{speedup:.2f}x ({os.cpu_count()} cores)"
    )
    if (os.cpu_count() or 1) >= 2:
        assert speedup >= 1.5, (
            f"expected >= 1.5x speedup with 2 workers, got {speedup:.2f}x"
        )
