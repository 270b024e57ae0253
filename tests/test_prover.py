"""Static branch-direction prover tests.

Unit tests pin the prover's verdicts on small programs; the gate tests at
the bottom are the soundness contract: across every workload and dataset,
no branch the prover marks PROVEN_* ever goes the other way — checked
against every run's aggregate branch counters: a proven-taken branch must
be taken on every execution, a proven fall-through branch never.
"""

from repro.analysis.prover import (
    ProofVerdict,
    proof_directions,
    prove_function,
    prove_module,
)
from repro.opt.globalconst import constant_globals
from repro.prediction import StaticProofPredictor
from repro.workloads.registry import all_workloads

from tests.helpers import compile_reference


def compiled_program(source):
    return compile_reference(source, select=False, optimize=True)


def proofs_of(source, name="main"):
    program = compiled_program(source)
    return prove_function(program.module.function(name))


def verdicts(proofs):
    return [proof.verdict for proof in proofs]


# -- unit verdicts --------------------------------------------------------------


def test_constant_false_condition_proven_fallthrough():
    # The optimizer folds trivially-constant guards away, so route the
    # constant through an opaque-to-folding shape: a global the linker
    # pins.  Simplest stable shape: compare getc() to itself is NOT
    # constant, but `0` surviving as a branch condition is what the
    # generality knobs produce; synthesize it via prove_function on the
    # unoptimized module.
    program = compile_reference(
        """
        var knob = 0;
        func main() {
            if (knob) { return 1; }
            return 0;
        }
        """,
        select=False,
        optimize=True,
    )
    proofs = prove_function(
        program.module.function("main"),
        const_globals=constant_globals(program.module),
    )
    assert [p.verdict for p in proofs] == [ProofVerdict.PROVEN_FALLTHROUGH]
    assert proofs[0].direction is False


def test_constant_true_condition_proven_taken():
    program = compile_reference(
        """
        var knob = 3;
        func main() {
            if (knob) { return 1; }
            return 0;
        }
        """,
        select=False,
        optimize=True,
    )
    proofs = prove_function(
        program.module.function("main"),
        const_globals=constant_globals(program.module),
    )
    assert [p.verdict for p in proofs] == [ProofVerdict.PROVEN_TAKEN]
    assert proofs[0].direction is True


def test_data_dependent_branch_stays_unknown():
    proofs = proofs_of(
        """
        func main() {
            if (getc() > 5) { return 1; }
            return 0;
        }
        """
    )
    assert verdicts(proofs) == [ProofVerdict.UNKNOWN]
    assert proofs[0].direction is None


def test_redundant_guard_proven_by_range_refinement():
    # x > 5 on the taken path makes the inner x > 0 test a tautology.
    proofs = proofs_of(
        """
        func main() {
            var x = getc();
            if (x > 5) {
                if (x > 0) { return 1; }
                return 2;
            }
            return 0;
        }
        """
    )
    by_verdict = {p.verdict: p for p in proofs}
    assert ProofVerdict.PROVEN_TAKEN in by_verdict
    assert ProofVerdict.UNKNOWN in by_verdict  # the outer guard


def test_repeated_truthiness_guard_proven_by_sign_facts():
    # Inside `if (x)`, a second `if (x)` must go the same way unless x is
    # redefined: the sign-facts layer pins the condition register nonzero.
    proofs = proofs_of(
        """
        func main() {
            var x = getc();
            if (x) {
                if (x) { return 1; }
                return 2;
            }
            return 0;
        }
        """
    )
    assert ProofVerdict.PROVEN_TAKEN in verdicts(proofs)


def test_getc_range_discharges_bounds_check():
    # getc() yields [-1, 255]; a < 4096 guard on it can never fail.
    proofs = proofs_of(
        """
        func main() {
            var c = getc();
            if (c < 4096) { return 1; }
            return 0;
        }
        """
    )
    assert verdicts(proofs) == [ProofVerdict.PROVEN_TAKEN]


def test_proofs_carry_loop_context():
    proofs = proofs_of(
        """
        func main() {
            var i = 0; var n = 0;
            while (getc() >= 0) { n = n + 1; }
            return n;
        }
        """
    )
    exits = [p for p in proofs if p.is_loop_exit]
    assert exits and all(p.loop_depth >= 1 for p in exits)


def test_proof_directions_keeps_only_proven():
    program = compiled_program(
        """
        var knob = 0;
        func main() {
            if (knob) { return 1; }
            if (getc()) { return 2; }
            return 0;
        }
        """
    )
    proofs = prove_module(program.module, constant_globals(program.module))
    directions = proof_directions(proofs)
    assert len(proofs) == 2
    assert list(directions.values()) == [False]


# -- the StaticProofPredictor wrapper -------------------------------------------


def test_static_proof_predictor_uses_fallback_for_unknown():
    # The data-dependent branch comes first: were it after the proven-taken
    # knob guard's early return, it would be unreachable (and thus proven
    # fall-through) rather than UNKNOWN.
    program = compiled_program(
        """
        var knob = 3;
        func main() {
            var n = 0;
            if (getc()) { n = 2; }
            if (knob) { n = n + 1; }
            return n;
        }
        """
    )
    predictor = StaticProofPredictor(program.module)
    proven = [p for p in predictor.proofs if p.verdict is ProofVerdict.PROVEN_TAKEN]
    unknown = [p for p in predictor.proofs if p.verdict is ProofVerdict.UNKNOWN]
    assert proven and unknown
    assert predictor.predict(proven[0].branch_id) is True
    assert predictor.is_proven(proven[0].branch_id)
    # Default fallback predicts not-taken for unproven branches.
    assert predictor.predict(unknown[0].branch_id) is False
    assert not predictor.is_proven(unknown[0].branch_id)


# -- soundness gates over the real workloads ------------------------------------


def _proven_directions(runner, workload_name):
    compiled = runner.compiled(workload_name)
    proofs = prove_module(compiled.module, constant_globals(compiled.module))
    return proof_directions(proofs)


def test_no_proven_branch_mispredicts_in_aggregate_counts(runner):
    """Gate: proofs hold on every workload x dataset (cached counts)."""
    checked = 0
    for workload in all_workloads():
        directions = _proven_directions(runner, workload.name)
        if not directions:
            continue
        for dataset in workload.dataset_names():
            result = runner.run(workload.name, dataset)
            for branch_id, (executed, taken) in result.branch_counts().items():
                expected = directions.get(branch_id)
                if expected is None:
                    continue
                checked += executed
                mispredicts = (executed - taken) if expected else taken
                assert mispredicts == 0, (
                    f"proven branch {branch_id} mispredicted "
                    f"{mispredicts}/{executed} times on "
                    f"{workload.name}/{dataset}"
                )
    assert checked > 0  # the gate must actually be exercising proofs


