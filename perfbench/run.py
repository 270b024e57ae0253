"""End-to-end and per-layer benchmark of the branch-prediction pipeline.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cold-sweep --seed 1 --seconds 12 --trace 0

Workloads (see ``scenarios.py`` and ``BENCHMARK.json``): ``cold-sweep``,
``monitored-warm``, ``serve-feedback``.

With ``--trace 0`` the run repeats the workload's timed iteration until
``--seconds`` would be exceeded (at least ``min_iterations`` times) and
reports the end-to-end metrics: ``wall_s`` (median iteration),
``setup_s`` (median of this process's set-up and those of fresh
processes doing only the set-up) and ``peak_rss_mb``.  Both times are
scaled to a nominal host speed measured alongside them (``hostspeed.py``).
With ``--trace 1`` it runs untraced iterations for a baseline, then traced ones with every
layer's public functions wrapped (``layers.py``), prints a per-layer
self-time table, writes the spans to
``.perfbench-work/spans-<workload>-seed<N>.json`` and reports the
per-layer metrics.  Either way every output is checked against the
goldens (``oracle.py``), and the last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""
from __future__ import annotations

import time

import hostspeed

# The host's speed is sampled on both sides of the set-up it scales.
SETUP_REFERENCE = hostspeed.Reference()
SETUP_REFERENCE.sample(0.1)
SETUP_REFERENCE.spent = 0.0
SETUP_STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from typing import Dict, List, Tuple  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_ROOT = os.path.join(ROOT, ".perfbench-work")
WORKLOADS = ("cold-sweep", "monitored-warm", "serve-feedback")

#: Name of the root span around each traced iteration's timed region.
ROOT_SPAN = "iteration"

def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe", action="store_true",
        help="only set up and tear down; print the set-up time",
    )
    return parser.parse_args(argv)


def run_iteration(scenario, oracle, tracer=None) -> Tuple[float, float]:
    """One iteration; only ``work`` is timed (and traced).  Returns its
    time as measured and scaled to the nominal host speed."""
    gc.collect()  # the previous iteration's garbage is not this one's
    state = scenario.prepare()
    try:
        root = tracer.open(ROOT_SPAN) if tracer is not None else None
        try:
            outcome, clock = scenario.work(state)
        finally:
            if tracer is not None:
                tracer.close(root)
        scenario.verify(state, outcome, oracle)
    finally:
        scenario.cleanup(state)
    measured = sum(clock.times.values())
    return measured, measured * clock.reference.scale()


def measure(scenario, oracle, seconds: float) -> List[Tuple[float, float]]:
    """Iterate until the next iteration would overrun ``seconds``, and at
    least ``scenario.min_iterations`` times."""
    iterations: List[Tuple[float, float]] = []
    started = time.perf_counter()
    while True:
        iterations.append(run_iteration(scenario, oracle))
        spent = time.perf_counter() - started
        if (len(iterations) >= scenario.min_iterations
                and spent + spent / len(iterations) > seconds):
            return iterations


def setup_time() -> Tuple[float, float]:
    """This process's set-up time, as measured and scaled to the nominal
    host speed; the sampling does not count as set-up."""
    measured = time.perf_counter() - SETUP_STARTED - SETUP_REFERENCE.spent
    SETUP_REFERENCE.sample(0.1)
    return measured, measured * SETUP_REFERENCE.scale()


def probe_setup(args: argparse.Namespace) -> Tuple[float, float]:
    """Set-up time of a fresh process running the same workload."""
    done = subprocess.run(
        [
            sys.executable, os.path.abspath(__file__),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--setup-probe",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr[-2000:]}")
    measured, scaled = json.loads(done.stdout.splitlines()[-1])["setup_s"]
    return measured, scaled


def traced_run(scenario, oracle, seed: int) -> Dict[str, float]:
    """Untraced baseline iterations, then traced ones; per-layer metrics."""
    import layers
    from spans import Tracer

    untraced, traced = scenario.trace_iterations
    baseline = [run_iteration(scenario, oracle)[0] for _ in range(untraced)]
    scenario.sampling = False
    tracer = Tracer()
    layers.install(tracer)
    try:
        times = [
            run_iteration(scenario, oracle, tracer)[0] for _ in range(traced)
        ]
    finally:
        tracer.uninstall()
    tracer.write(os.path.join(WORK_ROOT, f"spans-{scenario.name}-seed{seed}.json"))

    wall = statistics.mean(times)
    self_times = layers.layer_self_times(tracer, ROOT_SPAN)
    covered = sum(
        self_times.get(layer, 0.0) for layer in layers.STAGE_LAYERS
    ) / sum(times)
    print(f"per-layer self time, {traced} traced iteration(s), "
          f"traced wall_s {wall:.4f} s:")
    for layer, seconds in sorted(self_times.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:<12} {seconds / traced:10.4f} s  "
              f"{100.0 * seconds / sum(times):6.2f}%")

    totals = tracer.totals()
    for name in scenario.expected_calls:
        if not totals.get(name, {}).get("calls"):
            oracle.problem(f"wrapped layer {name!r} saw no calls on {scenario.name}")
    if scenario.coverage_floor is not None and covered < scenario.coverage_floor:
        oracle.problem(
            f"stage layers cover {covered:.1%} of the traced wall time, "
            f"below the {scenario.coverage_floor:.0%} floor"
        )
    scenario.check_trace(tracer.counts, oracle)

    values = {name: 0.0 for name in expected_metrics(1)}
    values.update(layers.metrics_from_spans(tracer, traced))
    scenario.finish(oracle)
    values.update(scenario.layer_values())
    values["trace.wall_s"] = wall
    values["trace.overhead_ratio"] = wall / statistics.median(baseline)
    values["trace.coverage"] = covered
    return values


def expected_metrics(trace: int) -> Dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json lists them for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    return {metric["name"]: metric["unit"] for metric in listed}


def report(oracle, values: Dict[str, float], trace: int) -> None:
    units = expected_metrics(trace)
    if set(values) != set(units):
        oracle.problem(
            "metrics disagree with BENCHMARK.json: "
            f"missing {sorted(set(units) - set(values))}, "
            f"extra {sorted(set(values) - set(units))}"
        )
    print(json.dumps({
        "correct": oracle.correct,
        "attempted": oracle.attempted,
        "failed": oracle.failed,
        "metrics": {
            name: {"value": value, "unit": units.get(name, "")}
            for name, value in values.items()
        },
    }))


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    source = os.path.join(ROOT, "src")
    sys.path.insert(0, source)
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import repro from {source}: {exc}",
              file=sys.stderr)
        return 2
    if not os.path.abspath(repro.__file__).startswith(source + os.sep):
        print(f"perfbench: imported repro from {repro.__file__}, "
              f"not from {source}", file=sys.stderr)
        return 2
    from oracle import GOLDENS_PATH, Oracle, load_json
    from scenarios import SCENARIOS

    oracle = Oracle(load_json(GOLDENS_PATH))
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    scenario = SCENARIOS[args.workload](args.seed, workdir)
    try:
        try:
            scenario.setup(SETUP_REFERENCE)
            setup_s = setup_time()
            if args.setup_probe:
                print(json.dumps({"setup_s": setup_s}))
                return 0
            if args.trace:
                values = traced_run(scenario, oracle, args.seed)
            else:
                iterations = measure(scenario, oracle, args.seconds)
                scenario.finish(oracle)
                values = {
                    "wall_s": statistics.median(
                        scaled for _, scaled in iterations
                    ),
                    "peak_rss_mb": scenario.peak_rss_mb(),
                }
        finally:
            scenario.teardown()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        report(oracle, values, 1)
        return 0
    setups = [setup_s] + [
        probe_setup(args) for _ in range(scenario.setup_samples - 1)
    ]
    values["setup_s"] = statistics.median(scaled for _, scaled in setups)

    def pairs(samples: List[Tuple[float, float]]) -> str:
        return ", ".join(f"{scaled:.3f}/{measured:.3f}"
                         for measured, scaled in samples)

    lines: List[Tuple[str, str]] = [
        ("wall_s", f"{values['wall_s']:.4f} s (median of scaled/measured "
                   f"{pairs(iterations)})"),
        ("setup_s", f"{values['setup_s']:.4f} s (median of scaled/measured "
                    f"{pairs(setups)})"),
        ("peak_rss_mb", f"{values['peak_rss_mb']:.1f} MB"),
        ("error_rate", f"{oracle.failed} failed / {oracle.attempted} ops"),
    ]
    print(f"{args.workload} seed {args.seed}:")
    for name, text in lines:
        print(f"  {name:<15} {text}")
    for line in scenario.summary():
        print(f"  {line}")
    report(oracle, values, 0)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
