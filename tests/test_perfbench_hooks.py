"""The benchmark's per-layer wrappers still catch the compiler stages and
the VM entry points.

``perfbench/layers.py`` wraps the stage functions ``compile_source``
calls through the ``repro.compiler`` namespace, every ``PASSES`` entry,
and ``repro.vm.engine.run_fast`` and ``run_monitored``, all by name;
``run_program`` must look the VM names up on the module at call time for
the wrappers to see any calls.  It also reads the optimizer's iteration
cap off each ``optimize_module`` call.  A refactor that renames or
bypasses one of these names, or changes how the cap reaches the
optimizer, fails here, not only in a traced benchmark run.
"""
import os

import pytest

import repro.vm.engine as engine
from repro.compiler import RunConfig, compile_source
from repro.opt import pipeline
from repro.vm.machine import run_program
from repro.vm.monitors import OutcomeRecorder

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench")


@pytest.fixture
def perfbench_modules(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import layers
    import scenarios
    import spans

    return layers, spans, scenarios


def test_run_fast_and_run_monitored_spans_see_one_call_each(perfbench_modules):
    layers, spans, _ = perfbench_modules
    originals = (engine.run_fast, engine.run_monitored)
    program = compile_source(
        "func main() { var i; for (i = 0; i < 5; i += 1) { putc(i); } "
        "return 0; }"
    ).lowered
    tracer = spans.Tracer()
    layers.install(tracer)
    try:
        run_program(program)
        run_program(program, monitors=[OutcomeRecorder()])
        totals = tracer.totals()
    finally:
        tracer.uninstall()
    assert totals["vm.run_fast"]["calls"] == 1
    assert totals["vm.run_monitored"]["calls"] == 1
    assert (engine.run_fast, engine.run_monitored) == originals


def test_compile_records_every_stage_and_paper_pass(perfbench_modules):
    layers, spans, scenarios = perfbench_modules
    source = (
        "var g; func f(x) { if (x > 3) { g += x; } return g; } "
        "func main() { var i; for (i = 0; i < 9; i += 1) { f(i); } "
        "return g; }"
    )
    tracer = spans.Tracer()
    layers.install(tracer)
    try:
        for config in (RunConfig(), RunConfig(dce=True)):
            run_program(compile_source(source, config=config).lowered)
        totals = tracer.totals()
    finally:
        tracer.uninstall()
    missing = [
        name for name in scenarios._COMPILE_SPANS
        if not totals.get(name, {}).get("calls")
    ]
    assert missing == []
    caps = [
        facts["max_iterations"] for index, facts in tracer.attrs.items()
        if tracer.spans[index][0] == "opt.optimize"
    ]
    assert caps == [pipeline.MAX_ITERATIONS] * 2
