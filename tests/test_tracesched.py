"""Trace selection and candidate-set tests."""
import pytest

from repro.compiler import compile_source
from repro.prediction.base import FixedPredictor, ProfilePredictor
from repro.profiling.branch_profile import BranchProfile
from repro.tracesched import (
    candidate_set_report,
    compare_predictors,
    expected_useful_length,
    select_traces,
    trace_instruction_counts,
)

from tests.helpers import compile_and_run

LOOP_WITH_RARE_EXIT = """
func main() {
    var i; var n = 0;
    for (i = 0; i < 100; i += 1) {
        if (i % 25 == 0) { n += 3; } else { n += 1; }
    }
    return n;
}
"""


@pytest.fixture()
def compiled():
    return compile_source(LOOP_WITH_RARE_EXIT)


@pytest.fixture()
def profile():
    return BranchProfile.from_run(compile_and_run(LOOP_WITH_RARE_EXIT))


def test_traces_partition_all_blocks(compiled, profile):
    func = compiled.module.function("main")
    traces = select_traces(func, ProfilePredictor(profile))
    covered = [label for trace in traces for label in trace.blocks]
    assert sorted(covered) == sorted(block.label for block in func.blocks)
    assert len(set(covered)) == len(covered)  # no block in two traces


def test_profile_guided_trace_follows_the_hot_path(compiled, profile):
    func = compiled.module.function("main")
    traces = select_traces(func, ProfilePredictor(profile))
    # The first trace starts at entry and runs through the loop body's
    # common (else) side.
    first = traces[0]
    assert first.blocks[0] == "entry"
    assert any("else" in label or "for.body" in label for label in first.blocks)


def test_trace_instruction_counts(compiled, profile):
    func = compiled.module.function("main")
    traces = select_traces(func, ProfilePredictor(profile))
    counts = trace_instruction_counts(func, traces)
    total = sum(len(block.instrs) for block in func.blocks)
    assert sum(counts.values()) == total


def test_expected_useful_length_bounded_by_static(compiled, profile):
    func = compiled.module.function("main")
    traces = select_traces(func, ProfilePredictor(profile))
    report = candidate_set_report(func, traces, profile)
    for expected, static in zip(report.expected_useful, report.static_lengths):
        assert 0 < expected <= static + 1e-9


def test_unknown_branches_assume_fifty_fifty(compiled):
    func = compiled.module.function("main")
    empty = BranchProfile(program="test")
    traces = select_traces(func, FixedPredictor(True))
    for trace in traces:
        value = expected_useful_length(func, trace, empty)
        assert value >= 0


def test_better_predictions_give_larger_candidate_sets(compiled, profile):
    """The paper's motivation: profile feedback lets the scheduler see
    more useful instructions than naive always-taken prediction."""
    func = compiled.module.function("main")
    reports = compare_predictors(
        func,
        profile,
        {
            "profile": ProfilePredictor(profile),
            "always-taken": FixedPredictor(True),
        },
    )
    assert (
        reports["profile"].best_expected
        >= reports["always-taken"].best_expected
    )


def test_candidate_sets_on_real_workload(runner):
    """Trace selection over the lisp interpreter's eval function."""
    compiled = runner.compiled("li")
    func = compiled.module.function("eval")
    profile = BranchProfile.from_run(runner.run("li", "6queens"))
    traces = select_traces(func, ProfilePredictor(profile))
    report = candidate_set_report(func, traces, profile)
    assert len(traces) >= 2
    assert report.best_expected > 5
    assert report.mean_expected <= report.best_expected
