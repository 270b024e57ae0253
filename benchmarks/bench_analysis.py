"""Benchmarks: the static prover and the dataflow framework's consumers.

These run once per compiled module (prover, sanitizer, lint), so what
matters is absolute cost over the full workload set: the prover (branch
folding's block-local constant-condition rule, no dataflow solve) must
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


def _compiled_modules(runner):
    """Every workload's module, compiled before a clock starts."""
    return [runner.compiled(workload.name).module for workload in all_workloads()]


def test_smoke_prover_over_all_workloads(runner):
    """Prove every branch in every workload; report sites/second."""
    modules = _compiled_modules(runner)
    known = [constant_globals(module) for module in modules]
    started = time.perf_counter()
    proofs = [
        proof
        for module, constants in zip(modules, known)
        for proof in prove_module(module, constants)
    ]
    elapsed = time.perf_counter() - started
    total = len(proofs)
    proven = sum(1 for p in proofs if p.verdict is not ProofVerdict.UNKNOWN)
    print(
        f"\n{total} branch sites proven-or-classified in {elapsed:.2f}s "
        f"({total / elapsed:.0f} sites/s), {proven} proven"
    )
    assert proven > 0
    assert elapsed < 60.0


def test_smoke_lint_over_all_workloads(runner):
    modules = _compiled_modules(runner)
    started = time.perf_counter()
    findings = sum(len(lint_module(module)) for module in modules)
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
