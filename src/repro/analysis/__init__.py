"""Dataflow analysis framework over the CFG-form IR.

A generic worklist (MFP) solver plus the classic analyses layered on it:

* :mod:`repro.analysis.dataflow` — direction-agnostic solver with edge
  transfers and unreachable (bottom) tracking, for finite-height lattices.
* :mod:`repro.analysis.liveness` — backward live-register analysis.
* :mod:`repro.analysis.reachdefs` — definite assignment (the
  use-before-def lint's engine).
* :mod:`repro.analysis.constprop` — conditional constant propagation with
  infeasible-edge pruning.

Consumers: the static branch-direction prover (:mod:`repro.analysis.prover`)
and the IR lint suite (:mod:`repro.analysis.lint`).
"""
from repro.analysis.constprop import ConstantPropagation, constants, eval_instr
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
    "ConstantPropagation",
    "DataflowAnalysis",
    "DataflowResult",
    "DefiniteAssignment",
    "LintFinding",
    "LivenessAnalysis",
    "ProofVerdict",
    "constants",
    "dead_instructions",
    "eval_instr",
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
