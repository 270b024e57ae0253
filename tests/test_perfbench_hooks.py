"""The benchmark's per-layer wrappers still catch the VM entry points.

``perfbench/layers.py`` wraps ``repro.vm.engine.run_fast`` and
``run_monitored`` by name, and ``Machine.run`` must look them up on the
module at call time for the wrappers to see any calls.  A refactor that
renames or bypasses either name fails here, not only in a traced
benchmark run.
"""
import os
import sys

import pytest

import repro.vm.engine as engine
from repro.compiler import compile_source
from repro.vm.machine import Machine
from repro.vm.monitors import OutcomeRecorder

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench")


@pytest.fixture
def perfbench_modules(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import layers
    import spans

    return layers, spans


def test_run_fast_and_run_monitored_spans_see_one_call_each(perfbench_modules):
    layers, spans = perfbench_modules
    originals = (engine.run_fast, engine.run_monitored)
    program = compile_source(
        "func main() { var i; for (i = 0; i < 5; i += 1) { putc(i); } "
        "return 0; }"
    ).lowered
    tracer = spans.Tracer()
    layers.install(tracer)
    try:
        Machine().run(program)
        Machine().run(program, monitors=[OutcomeRecorder()])
        totals = tracer.totals()
    finally:
        tracer.uninstall()
    assert totals["vm.run_fast"]["calls"] == 1
    assert totals["vm.run_monitored"]["calls"] == 1
    assert (engine.run_fast, engine.run_monitored) == originals
