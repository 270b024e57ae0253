"""Static branch-direction proofs.

Classifies every conditional branch as ``PROVEN_TAKEN``,
``PROVEN_FALLTHROUGH``, or ``UNKNOWN`` using only the program text — no
profile data.  A *proof* is a guarantee about the branch's condition value
on every execution, so a proven branch can never mispredict; the test
suite's cross-check gate enforces exactly that against the aggregate
branch counters of every workload run.

Proof layers, cheapest first:

1. **Unreachability** — conditional constant propagation marks the block
   bottom: the branch never executes, so either direction is vacuously
   sound (we report fall-through, matching the static default).
2. **Constant conditions** — the condition register folds to a constant.
3. **Value ranges** — the condition's interval excludes zero (taken) or is
   exactly ``[0, 0]`` (fall-through).  Loop-exit edges feed this layer:
   interval refinement on a loop header's exit edge (``i < n`` false means
   ``i >= n``) flows to post-loop blocks, with widening anchored at the
   ``loop_headers`` of the natural loops found through ``dominators``.
4. **Edge feasibility** — the range analysis proves one out-edge's
   refinement contradictory (empty interval), so the other must be taken.
5. **Sign facts** — a dominating test of the *same* single-definition
   register pins the condition nonzero/zero where intervals cannot
   (``if (x) { ... if (x) ... }`` with ``x`` unbounded).

Degenerate branches (identical targets) still read a condition, and
prediction is scored on the condition's truth, so layers 2/3/5 apply to
them; only edge-based reasoning (1 edge, 2 "directions") does not.
"""
from __future__ import annotations

import dataclasses
import enum
from typing import Dict, FrozenSet, List, Mapping, Optional

from repro.analysis.constprop import ConstantPropagation, ConstState
from repro.analysis.dataflow import DataflowAnalysis, solve
from repro.analysis.ranges import (
    TOP,
    RangeAnalysis,
    RangeState,
    _copy_representatives,
)
from repro.ir.analysis import natural_loop_bodies
from repro.ir.cfg import BasicBlock, Function, Module
from repro.ir.instructions import BranchId
from repro.ir.opcodes import Opcode


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
    #: Number of natural loops whose body contains the branch.
    loop_depth: int
    #: Whether one target leaves the innermost containing loop.
    is_loop_exit: bool

    @property
    def direction(self) -> Optional[bool]:
        """The proven direction (True = taken), if proven."""
        if self.verdict is ProofVerdict.PROVEN_TAKEN:
            return True
        if self.verdict is ProofVerdict.PROVEN_FALLTHROUGH:
            return False
        return None


#: Sign-fact state: register -> known-nonzero (True) or known-zero (False).
SignState = Dict[int, bool]


class SignFacts(DataflowAnalysis[SignState]):
    """Tracks nonzero/zero facts pinned by dominating tests.

    Facts are created on branch out-edges (then: condition nonzero; else:
    condition zero) and killed by any redefinition, so a surviving fact at
    a later test of the same register decides it.  Intervals cannot express
    "nonzero" for an unbounded register; this two-point lattice can.
    """

    def boundary(self, func: Function) -> SignState:
        return {}

    def meet(self, left: SignState, right: SignState) -> SignState:
        if left == right:
            return dict(left)
        return {
            reg: fact for reg, fact in left.items() if right.get(reg) == fact
        }

    def transfer(self, block: BasicBlock, state: SignState) -> SignState:
        facts = dict(state)
        for instr in block.instrs:
            dst = instr.dst
            if dst is None:
                continue
            if instr.op == Opcode.CONST and instr.imm is not None:
                facts[dst] = instr.imm != 0
            elif instr.op == Opcode.MOV and instr.a in facts:
                facts[dst] = facts[instr.a]
            else:
                facts.pop(dst, None)
        return facts

    def edge_transfer(
        self, block: BasicBlock, target: str, state: SignState
    ) -> Optional[SignState]:
        term = block.terminator
        if term is None or term.op != Opcode.BR or term.a is None:
            return state
        if term.then_label == term.else_label:
            return state
        taken = target == term.then_label
        facts = dict(state)
        # The fact applies to the tested register and to every register in
        # its copy class at the terminator (codegen's variable copies: the
        # branch tests the temporary while later tests read the variable).
        rep = _copy_representatives(block)
        root = rep.get(term.a, term.a)
        pinned = {term.a} | {
            reg
            for reg in set(rep) | set(rep.values())
            if rep.get(reg, reg) == root
        }
        for reg in pinned:
            existing = state.get(reg)
            if existing is not None and existing != taken:
                return None  # the test's outcome contradicts a known fact
            facts[reg] = taken
        return facts


def _loop_membership(func: Function) -> Dict[str, List[FrozenSet[str]]]:
    """Label -> bodies of the natural loops containing it (innermost last
    by size ordering is not guaranteed; callers use ``min`` by size)."""
    membership: Dict[str, List[FrozenSet[str]]] = {}
    for body in natural_loop_bodies(func).values():
        frozen = frozenset(body)
        for label in body:
            membership.setdefault(label, []).append(frozen)
    return membership


def prove_function(
    func: Function, const_globals: Optional[Mapping[str, int]] = None
) -> List[BranchProof]:
    """Prove branch directions for one function."""
    const_result = solve(func, ConstantPropagation(const_globals))
    range_analysis = RangeAnalysis()
    range_result = solve(func, range_analysis)
    sign_result = solve(func, SignFacts())
    membership = _loop_membership(func)

    proofs: List[BranchProof] = []
    for block in func.blocks:
        term = block.terminator
        if term is None or term.op != Opcode.BR or term.a is None:
            continue
        if term.branch_id is None:
            continue
        bodies = membership.get(block.label, [])
        loop_depth = len(bodies)
        is_loop_exit = False
        if bodies:
            innermost = min(bodies, key=len)
            is_loop_exit = (
                term.then_label not in innermost
                or term.else_label not in innermost
            )

        verdict, reason = _classify(
            block,
            term.a,
            const_result.after.get(block.label),
            range_result.after.get(block.label),
            sign_result.after.get(block.label),
            range_analysis,
            degenerate=term.then_label == term.else_label,
        )
        proofs.append(
            BranchProof(
                function=func.name,
                label=block.label,
                branch_id=term.branch_id,
                verdict=verdict,
                reason=reason,
                loop_depth=loop_depth,
                is_loop_exit=is_loop_exit,
            )
        )
    return proofs


def _classify(
    block: BasicBlock,
    cond: int,
    const_state: Optional[ConstState],
    range_state: Optional[RangeState],
    sign_state: Optional[SignState],
    range_analysis: RangeAnalysis,
    degenerate: bool,
) -> "tuple[ProofVerdict, str]":
    # Layer 1: the block never executes.
    if const_state is None:
        return ProofVerdict.PROVEN_FALLTHROUGH, "unreachable"

    # Layer 2: constant condition.
    constant = const_state.get(cond)
    if constant is not None:
        verdict = (
            ProofVerdict.PROVEN_TAKEN
            if constant != 0
            else ProofVerdict.PROVEN_FALLTHROUGH
        )
        return verdict, f"condition is constant {constant}"

    # Layer 3: the condition's interval decides it.
    interval = (range_state or {}).get(cond, TOP)
    if interval.excludes_zero():
        return ProofVerdict.PROVEN_TAKEN, f"condition range {interval}"
    if interval.is_constant() and interval.lo == 0:
        return ProofVerdict.PROVEN_FALLTHROUGH, f"condition range {interval}"

    # Layer 4: one out-edge's refinement is contradictory.
    if not degenerate and range_state is not None:
        term = block.terminator
        assert term is not None
        then_state = range_analysis.edge_transfer(
            block, term.then_label or "", range_state
        )
        else_state = range_analysis.edge_transfer(
            block, term.else_label or "", range_state
        )
        if then_state is None and else_state is not None:
            return ProofVerdict.PROVEN_FALLTHROUGH, "taken edge infeasible"
        if else_state is None and then_state is not None:
            return ProofVerdict.PROVEN_TAKEN, "fall-through edge infeasible"

    # Layer 5: a dominating test already pinned the condition's sign.
    fact = (sign_state or {}).get(cond)
    if fact is not None:
        verdict = (
            ProofVerdict.PROVEN_TAKEN
            if fact
            else ProofVerdict.PROVEN_FALLTHROUGH
        )
        return verdict, "dominating test pins condition " + (
            "nonzero" if fact else "zero"
        )

    return ProofVerdict.UNKNOWN, "data-dependent"


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
