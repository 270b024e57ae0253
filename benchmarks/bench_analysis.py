"""Benchmarks: the dataflow framework and its two consumers.

The analyses run once per compiled module (prover, sanitizer, lint), so
what matters is absolute cost over the full workload set: the prover must
stay cheap relative to a single VM simulation, and the sanitized pipeline
must stay a small multiple of the plain one.
"""
import time

from repro.analysis.lint import lint_module
from repro.analysis.prover import ProofVerdict, prove_module
from repro.opt.globalconst import constant_globals
from repro.opt.pipeline import optimize_module
from repro.workloads import all_workloads

from tests.helpers import compile_reference


def test_smoke_prover_over_all_workloads(runner):
    """Prove every branch in every workload; report sites/second."""
    started = time.perf_counter()
    total = proven = 0
    for workload in all_workloads():
        compiled = runner.compiled(workload.name)
        proofs = prove_module(
            compiled.module, constant_globals(compiled.module)
        )
        total += len(proofs)
        proven += sum(1 for p in proofs if p.verdict is not ProofVerdict.UNKNOWN)
    elapsed = time.perf_counter() - started
    print(
        f"\n{total} branch sites proven-or-classified in {elapsed:.2f}s "
        f"({total / elapsed:.0f} sites/s), {proven} proven"
    )
    assert proven > 0
    assert elapsed < 60.0


def test_smoke_lint_over_all_workloads(runner):
    started = time.perf_counter()
    findings = 0
    for workload in all_workloads():
        compiled = runner.compiled(workload.name)
        findings += len(lint_module(compiled.module))
    elapsed = time.perf_counter() - started
    print(f"\n{findings} findings across all workloads in {elapsed:.2f}s")
    assert elapsed < 60.0


def test_smoke_sanitizer_overhead():
    """Sanitized vs plain pipeline on one mid-sized workload."""
    workload = next(w for w in all_workloads() if w.name == "compress")

    def pipeline(sanitize):
        program = compile_reference(
            workload.source, select=True, optimize=False, name=workload.name
        )
        started = time.perf_counter()
        optimize_module(program.module, sanitize=sanitize)
        return time.perf_counter() - started

    plain = pipeline(False)
    sanitized = pipeline(True)
    print(
        f"\nplain {plain * 1e3:.1f}ms, sanitized {sanitized * 1e3:.1f}ms "
        f"({sanitized / plain:.1f}x)"
    )
    # Re-validating after every changing pass should stay a small multiple.
    assert sanitized < plain * 25 + 1.0
