"""Dataflow analysis framework over the CFG-form IR.

A generic worklist (MFP) solver plus the classic analyses layered on it:

* :mod:`repro.analysis.dataflow` — direction-agnostic solver with
  unreachable (bottom) tracking, for finite-height lattices.
* :mod:`repro.analysis.liveness` — backward live-register analysis.
* :mod:`repro.analysis.reachdefs` — definite assignment (the
  use-before-def lint's engine).

Consumers: the IR lint suite (:mod:`repro.analysis.lint`) and the
dead-instruction pass.  The static branch-direction prover
(:mod:`repro.analysis.prover`) needs no solve: it asks branch folding's
block-local rule (:func:`repro.opt.branch_folding.constant_condition`)
which conditions are constant.
"""
from repro.analysis.dataflow import (
    BACKWARD,
    FORWARD,
    DataflowAnalysis,
    DataflowResult,
    solve,
)
from repro.analysis.lint import (
    LintFinding,
    format_findings,
    lint_errors,
    lint_function,
    lint_module,
)
from repro.analysis.liveness import LivenessAnalysis, dead_instructions, live_sets
from repro.analysis.prover import (
    BranchProof,
    ProofVerdict,
    proof_directions,
    prove_function,
    prove_module,
)
from repro.analysis.reachdefs import (
    DefiniteAssignment,
    maybe_uninitialized_uses,
)

__all__ = [
    "BACKWARD",
    "FORWARD",
    "BranchProof",
    "DataflowAnalysis",
    "DataflowResult",
    "DefiniteAssignment",
    "LintFinding",
    "LivenessAnalysis",
    "ProofVerdict",
    "dead_instructions",
    "format_findings",
    "lint_errors",
    "lint_function",
    "lint_module",
    "live_sets",
    "maybe_uninitialized_uses",
    "proof_directions",
    "prove_function",
    "prove_module",
    "solve",
]
