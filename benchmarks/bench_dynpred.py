"""Benchmark: finite-table predictor throughput and the dynamic sweep.

Four measurements:

* raw model throughput on a synthetic outcome stream — the per-event
  Python cost of each predictor family's ``simulate`` loop, which bounds
  how large a sweep stays practical;
* the zoo's scoring passes against one standalone pass per model (each
  model its own monitor): each size's tournament also advances and
  scores its bimodal and gshare components, so the 12 default models
  take 6 passes.  The smoke floor replays doduc/tiny; the full benchmark
  replays the ``dynamic`` experiment's 16 real traces and records
  ``BENCH_DYNPRED.json``;
* one monitored run scoring the whole zoo;
* the ``dynamic_compare`` experiment on one workload — the monitored
  re-simulation plus the zoo's 6-pass, 12-model scoring end to end.

Both sides of a comparison are timed ``ROUNDS`` times, alternating, and
the fastest of each is compared: on a shared host one round per side lets
neighbour load decide the ratio.
"""
import json
import platform
import time
from pathlib import Path

from repro.core.specs import standalone_model
from repro.dynamic import MODEL_FAMILIES, default_zoo, monitors_for
from repro.dynamic.zoo import DEFAULT_TABLE_SIZES
from repro.experiments import dynamic_compare
from repro.ir.instructions import BranchId
from repro.vm.monitors import BranchMonitor
from repro.workloads.registry import get_workload
from tests.helpers import run_with_monitors

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_DYNPRED.json"

STREAM_EVENTS = 200_000

#: Timed rounds per side.
ROUNDS = 3

#: CI floor for the zoo's passes over 12 standalone passes on doduc/tiny.
#: Both sides run the same tournament and local loops, so the ratio is
#: what the dropped bimodal and gshare passes cost: about 1.5-1.6x on a
#: 2-vCPU x86 host.  Under 1.3x the components are advanced twice or the
#: shared pass got slower.
ZOO_FLOOR = 1.3


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
    for family in MODEL_FAMILIES:
        model = standalone_model(f"{family}@1024")
        model.reset(branch_table)
        started = time.perf_counter()
        model.simulate(stream)
        elapsed = time.perf_counter() - started
        rate = STREAM_EVENTS / elapsed
        print(f"{model.name:16s} {rate / 1e6:6.2f} M events/s")
        assert rate > 100_000, f"{model.name}: {rate:.0f} events/s"


class ChunkRecorder(BranchMonitor):
    """Keeps a run's branch table and its chunks, as delivered, with the
    instruction counts zeroed: the models read only the outcomes."""

    def on_run_start(self, branch_table):
        self.branch_table = list(branch_table)
        self.chunks = []
        self._shared = {}

    def replay(self, chunk):
        # One int object per distinct outcome keeps a long trace small.
        shared = self._shared.setdefault
        self.chunks.append([
            item
            for outcome in chunk[0::2]
            for item in (shared(outcome, outcome), 0)
        ])


def _trace(runner, workload, dataset):
    recorder = ChunkRecorder()
    run_with_monitors(runner, workload, dataset, [recorder])
    return recorder.branch_table, recorder.chunks


def _standalone_models():
    """One model per zoo entry, each its own monitor and its own pass."""
    return [
        standalone_model(f"{family}@{size}")
        for family in MODEL_FAMILIES
        for size in DEFAULT_TABLE_SIZES
    ]


def _score(traces, make_models, attach):
    """Replay every trace to fresh models through ``attach(models)``;
    returns the seconds taken and each model's (executions, mispredicts)."""
    tallies = []
    elapsed = 0.0
    for branch_table, chunks in traces:
        models = make_models()
        monitors = attach(models)
        started = time.perf_counter()
        for monitor in monitors:
            monitor.on_run_start(branch_table)
        for chunk in chunks:
            for monitor in monitors:
                monitor.replay(chunk)
        elapsed += time.perf_counter() - started
        tallies.append(
            [(model.name, model.executions, model.mispredicts) for model in models]
        )
    return elapsed, tallies


def _compare(traces):
    """Best-of-``ROUNDS`` seconds of 12 standalone passes and of the zoo's
    passes, alternating; both must tally every model identically."""
    standalone_times, zoo_times = [], []
    for _ in range(ROUNDS):
        standalone_s, standalone = _score(traces, _standalone_models, list)
        zoo_s, zoo = _score(traces, default_zoo, monitors_for)
        assert zoo == standalone
        standalone_times.append(standalone_s)
        zoo_times.append(zoo_s)
    return min(standalone_times), min(zoo_times)


def test_smoke_zoo_passes_beat_standalone_passes(runner):
    traces = [_trace(runner, "doduc", "tiny")]
    standalone_s, zoo_s = _compare(traces)
    speedup = standalone_s / zoo_s
    print(
        f"\ndoduc/tiny, best of {ROUNDS}: 12 standalone passes "
        f"{standalone_s * 1e3:.1f} ms, {len(monitors_for(default_zoo()))} zoo "
        f"passes {zoo_s * 1e3:.1f} ms, {speedup:.2f}x"
    )
    assert speedup >= ZOO_FLOOR, (
        f"expected the zoo's passes >= {ZOO_FLOOR}x faster than 12 "
        f"standalone passes, got {speedup:.2f}x"
    )


def test_full_zoo_scoring_benchmark(runner):
    """Replay the ``dynamic`` experiment's 16 traces and record
    BENCH_DYNPRED.json."""
    traces = [
        _trace(runner, name, dataset)
        for name in dynamic_compare.DEFAULT_PROGRAMS
        for dataset in get_workload(name).dataset_names()
    ]
    events = sum(len(chunk) // 2 for _, chunks in traces for chunk in chunks)
    standalone_s, zoo_s = _compare(traces)
    report = {
        "benchmark": "dynamic_zoo_scoring",
        "date": time.strftime("%Y-%m-%d"),
        "python": platform.python_version(),
        "traces": len(traces),
        "branch_events": events,
        "models": len(default_zoo()),
        "rounds": ROUNDS,
        "before": {
            "passes": len(_standalone_models()),
            "seconds": round(standalone_s, 3),
            "events_per_s": round(events / standalone_s),
        },
        "after": {
            "passes": len(monitors_for(default_zoo())),
            "seconds": round(zoo_s, 3),
            "events_per_s": round(events / zoo_s),
        },
        "speedup": round(standalone_s / zoo_s, 2),
    }
    BENCH_PATH.write_text(json.dumps(report, indent=2) + "\n")
    print(
        f"\n{len(traces)} traces, {events} events x {report['models']} models: "
        f"{report['before']['passes']} passes {standalone_s:.2f}s, "
        f"{report['after']['passes']} passes {zoo_s:.2f}s, "
        f"{report['speedup']:.2f}x -> {BENCH_PATH.name}"
    )
    assert report["speedup"] >= ZOO_FLOOR


def test_smoke_monitored_scoring_overhead(runner):
    """One monitored doduc/tiny run scoring the full default zoo."""
    models = default_zoo()
    monitors = monitors_for(models)
    started = time.perf_counter()
    result = run_with_monitors(runner, "doduc", "tiny", monitors)
    elapsed = time.perf_counter() - started
    events = result.total_branch_execs
    print(f"\n{events} branch events x {len(models)} models "
          f"({len(monitors)} passes) in {elapsed:.2f}s "
          f"({events * len(models) / elapsed / 1e6:.2f} M scores/s)")
    assert all(model.score(result).branch_execs == events for model in models)


def test_smoke_dynamic_sweep(runner):
    started = time.perf_counter()
    result = dynamic_compare.run(
        runner, programs=["doduc"], table_sizes=(64, 256, 1024)
    )
    elapsed = time.perf_counter() - started
    print(f"\ndoduc dynamic sweep ({len(result.rows)} rows) in {elapsed:.1f}s")
    assert len(result.rows) == 3 * (4 * 3 + 2)
