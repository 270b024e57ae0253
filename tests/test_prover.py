"""Static branch-direction prover tests.

Unit tests pin the prover's verdicts on small programs; the gate tests at
the bottom are the soundness contract: across every workload and dataset,
and across generated programs under every experiment configuration, no
branch the prover marks PROVEN_* ever goes the other way — checked
against every run's aggregate branch counters: a proven-taken branch must
be taken on every execution, a proven fall-through branch never.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.prover import (
    ProofVerdict,
    proof_directions,
    prove_function,
    prove_module,
)
from repro.compiler import RunConfig, compile_source
from repro.opt.globalconst import constant_globals
from repro.prediction import StaticProofPredictor
from repro.vm.machine import run_program
from repro.workloads.registry import all_workloads

from tests.helpers import EXPERIMENT_CONFIGS, compile_reference, mf_module


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


@pytest.mark.parametrize(
    "config, proven, sites",
    [(RunConfig(), 18, 677), (RunConfig(dce=True), 0, 659)],
    ids=["paper", "dce"],
)
def test_proof_counts_over_all_workloads(runner, config, proven, sites):
    """The ``proofs`` table's note: every proof is a constant condition."""
    proofs = []
    for workload in all_workloads():
        module = runner.compiled(workload.name, config).module
        proofs.extend(prove_module(module, constant_globals(module)))
    assert len(proofs) == sites
    assert sum(proof.verdict.proven for proof in proofs) == proven
    assert all(
        proof.reason.startswith("condition is constant")
        for proof in proofs
        if proof.verdict.proven
    )


def _checked_proven_executions(seed, config, data):
    """Compile, prove and run one generated program; fail on any proven
    branch the run contradicts, else return the executions checked."""
    compiled = compile_source(mf_module(seed), name=f"p{seed}", config=config)
    directions = proof_directions(
        prove_module(compiled.module, constant_globals(compiled.module))
    )
    result = run_program(compiled.lowered, input_data=data)
    checked = 0
    for branch_id, (executed, taken) in result.branch_counts().items():
        expected = directions.get(branch_id)
        if expected is None:
            continue
        mispredicts = (executed - taken) if expected else taken
        assert mispredicts == 0, (
            f"seed {seed} {config.tag()}: proven branch {branch_id} "
            f"mispredicted {mispredicts}/{executed} times"
        )
        checked += executed
    return checked


@given(
    seed=st.integers(min_value=0, max_value=10**6),
    config=st.sampled_from(EXPERIMENT_CONFIGS),
    data=st.binary(max_size=8),
)
@example(seed=0, config=RunConfig(inline=True), data=b"")
@settings(max_examples=25, deadline=None)
def test_no_proven_branch_mispredicts_on_generated_programs(seed, config, data):
    _checked_proven_executions(seed, config, data)


def test_generated_program_example_exercises_proofs():
    # The pinned example above is not vacuous: inlining gen0_4(6, 2) makes
    # its probe loop's guards constant, and the run executes them.  (The
    # generator's ``knob`` guard never reaches the prover: branch folding
    # removes it under every configuration.)
    assert _checked_proven_executions(0, RunConfig(inline=True), b"") > 0
