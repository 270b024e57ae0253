"""Break accounting and instructions-per-break tests."""
import pytest

from repro.metrics import (
    BreakPolicy,
    RunSummary,
    branch_density,
    ipb_no_prediction,
    ipb_self_prediction,
    ipb_with_predictor,
    unavoidable_breaks,
    unpredicted_breaks,
)
from repro.prediction import FixedPredictor
from repro.prediction.evaluate import PredictionReport

from tests.helpers import compile_and_run

MIXED = """
func helper(x) { return x + 1; }
func main() {
    var f = &helper;
    var i; var n = 0;
    for (i = 0; i < 10; i += 1) {
        n = helper(n);
        n = f(n);
    }
    return n % 256;
}
"""


def test_unavoidable_breaks_are_indirect_call_pairs():
    run = compile_and_run(MIXED)
    assert unavoidable_breaks(run) == 20  # 10 icalls + 10 ireturns


def test_unpredicted_breaks_policy():
    run = compile_and_run(MIXED)
    without_calls = unpredicted_breaks(run)
    with_calls = unpredicted_breaks(run, BreakPolicy(include_direct_calls=True))
    assert without_calls == run.total_branch_execs + 20
    assert with_calls == without_calls + 20  # 10 direct calls + 10 returns


def test_report_breaks_uses_mispredictions():
    run = compile_and_run(MIXED)
    report = PredictionReport(
        program=run.program, predictor="p", instructions=run.instructions,
        branch_execs=run.total_branch_execs, mispredicted=3,
        unavoidable_breaks=unavoidable_breaks(run),
    )
    assert report.breaks == 23


def test_ipb_no_prediction_matches_definition():
    run = compile_and_run(MIXED)
    expected = run.instructions / unpredicted_breaks(run)
    assert ipb_no_prediction(run) == pytest.approx(expected)


def test_ipb_improves_with_prediction():
    run = compile_and_run(MIXED)
    assert ipb_self_prediction(run) > ipb_no_prediction(run)


def test_ipb_self_is_upper_bound():
    run = compile_and_run(MIXED)
    for predictor in (FixedPredictor(True), FixedPredictor(False)):
        assert ipb_with_predictor(run, predictor) <= ipb_self_prediction(run) + 1e-9


def test_branch_density():
    run = compile_and_run(MIXED)
    assert branch_density(run) == pytest.approx(
        run.instructions / run.total_branch_execs
    )


def test_ipb_handles_branch_free_runs():
    run = compile_and_run("func main() { return 3; }")
    assert ipb_no_prediction(run) == run.instructions
    assert ipb_self_prediction(run) == run.instructions


def test_run_summary_fields():
    run = compile_and_run(MIXED)
    summary = RunSummary.from_run(run, dataset="d0")
    assert summary.program == run.program
    assert summary.dataset == "d0"
    assert summary.instructions == run.instructions
    assert 0 <= summary.percent_taken <= 1
    assert summary.ipb_self >= summary.ipb_unpredicted
    assert summary.ipb_unpredicted_with_calls <= summary.ipb_unpredicted
