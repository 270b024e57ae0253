"""Static branch-direction proofs.

Classifies every conditional branch as ``PROVEN_TAKEN``,
``PROVEN_FALLTHROUGH``, or ``UNKNOWN`` using only the program text — no
profile data.  A *proof* is a guarantee about the branch's condition value
on every execution, so a proven branch can never mispredict; the test
suite's cross-check gate enforces exactly that against the aggregate
branch counters of every workload run.

A branch is proven when its condition is constant by the rule branch
folding uses (:func:`repro.opt.branch_folding.constant_condition`): the
block's own instructions, plus the never-written global scalars, fix the
condition's value.  Under the ``dce`` configuration branch folding has
already turned every such branch into a jump, so the prover finds none;
under every other configuration it names exactly the branches that
``dce`` would fold.

Degenerate branches (identical targets) still read a condition, and
prediction is scored on the condition's truth, so they are classified
like any other branch.
"""
from __future__ import annotations

import dataclasses
import enum
from typing import Dict, List, Mapping, Optional

from repro.ir.cfg import Function, Module
from repro.ir.instructions import BranchId
from repro.ir.opcodes import Opcode
from repro.opt.branch_folding import constant_condition


class ProofVerdict(enum.Enum):
    """What the prover established about a branch's direction."""

    PROVEN_TAKEN = "proven-taken"
    PROVEN_FALLTHROUGH = "proven-fallthrough"
    UNKNOWN = "unknown"

    @property
    def proven(self) -> bool:
        return self is not ProofVerdict.UNKNOWN


@dataclasses.dataclass(frozen=True)
class BranchProof:
    """One conditional branch's classification."""

    function: str
    label: str
    branch_id: BranchId
    verdict: ProofVerdict
    reason: str

    @property
    def direction(self) -> Optional[bool]:
        """The proven direction (True = taken), if proven."""
        if self.verdict is ProofVerdict.PROVEN_TAKEN:
            return True
        if self.verdict is ProofVerdict.PROVEN_FALLTHROUGH:
            return False
        return None


def prove_function(
    func: Function, const_globals: Optional[Mapping[str, int]] = None
) -> List[BranchProof]:
    """Prove branch directions for one function."""
    proofs: List[BranchProof] = []
    for block in func.blocks:
        term = block.terminator
        if term is None or term.op != Opcode.BR or term.a is None:
            continue
        if term.branch_id is None:
            continue
        constant = constant_condition(block, const_globals)
        if constant is None:
            verdict, reason = ProofVerdict.UNKNOWN, "data-dependent"
        else:
            verdict = (
                ProofVerdict.PROVEN_TAKEN
                if constant != 0
                else ProofVerdict.PROVEN_FALLTHROUGH
            )
            reason = f"condition is constant {constant}"
        proofs.append(
            BranchProof(
                function=func.name,
                label=block.label,
                branch_id=term.branch_id,
                verdict=verdict,
                reason=reason,
            )
        )
    return proofs


def prove_module(
    module: Module, const_globals: Optional[Mapping[str, int]] = None
) -> List[BranchProof]:
    """Prove branch directions for every function in a module."""
    proofs: List[BranchProof] = []
    for func in module.functions:
        proofs.extend(prove_function(func, const_globals))
    return proofs


def proof_directions(proofs: List[BranchProof]) -> Dict[BranchId, bool]:
    """Proven branches only: branch id -> direction (True = taken)."""
    return {
        proof.branch_id: proof.direction
        for proof in proofs
        if proof.direction is not None
    }
