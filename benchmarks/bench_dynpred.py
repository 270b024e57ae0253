"""Benchmark: finite-table predictor throughput and the dynamic sweep.

Two measurements:

* raw model throughput on a synthetic outcome stream — the per-event
  Python cost of each predictor family's ``simulate`` loop, which bounds
  how large a sweep stays practical;
* the ``dynamic_compare`` experiment on one workload — the monitored
  re-simulation plus 12-model scoring pass end to end.
"""
import time

from repro.dynamic import default_zoo
from repro.experiments import dynamic_compare
from repro.ir.instructions import BranchId

STREAM_EVENTS = 200_000


def _synthetic_stream(num_branches=256, events=STREAM_EVENTS):
    # Mix of biased, alternating and loop-periodic branches so every
    # family exercises its update path, not just a saturated fast path.
    stream = []
    for i in range(events):
        index = (i * 7919) % num_branches
        if index % 3 == 0:
            taken = True
        elif index % 3 == 1:
            taken = i % 2 == 0
        else:
            taken = i % 4 != 3
        stream.append(index << 1 | taken)
    return [BranchId("synth", i) for i in range(num_branches)], stream


def test_smoke_predictor_throughput():
    branch_table, stream = _synthetic_stream()
    print()
    for model in default_zoo(table_sizes=(1024,)):
        model.reset(branch_table)
        started = time.perf_counter()
        model.simulate(stream)
        elapsed = time.perf_counter() - started
        rate = STREAM_EVENTS / elapsed
        print(f"{model.name:16s} {rate / 1e6:6.2f} M events/s")
        assert rate > 100_000, f"{model.name}: {rate:.0f} events/s"


def test_smoke_monitored_scoring_overhead(runner):
    """One monitored doduc/tiny run scoring the full default zoo."""
    models = default_zoo()
    started = time.perf_counter()
    result = runner.run("doduc", "tiny", monitors=models)
    elapsed = time.perf_counter() - started
    events = result.total_branch_execs
    print(f"\n{events} branch events x {len(models)} models "
          f"in {elapsed:.2f}s "
          f"({events * len(models) / elapsed / 1e6:.2f} M scores/s)")
    assert models[0].score(result).branch_execs == events


def test_smoke_dynamic_sweep(runner):
    started = time.perf_counter()
    result = dynamic_compare.run(
        runner, programs=["doduc"], table_sizes=(64, 256, 1024)
    )
    elapsed = time.perf_counter() - started
    print(f"\ndoduc dynamic sweep ({len(result.rows)} rows) in {elapsed:.1f}s")
    assert len(result.rows) == 3 * (4 * 3 + 2)
