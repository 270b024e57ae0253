"""Property-based tests over profiles, predictors and break accounting."""
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir.instructions import BranchId
from repro.prediction.base import FixedPredictor, ProfilePredictor
from repro.prediction.combine import combine_profiles
from repro.prediction.evaluate import (
    PredictionReport,
    evaluate_static,
    self_prediction,
)
from repro.profiling.branch_profile import BranchProfile
from repro.vm.counters import ControlEvents, RunResult

# -- strategies -----------------------------------------------------------------


@st.composite
def branch_counts(draw, max_branches=12):
    count = draw(st.integers(min_value=1, max_value=max_branches))
    executed = draw(
        st.lists(
            st.integers(min_value=0, max_value=1000),
            min_size=count, max_size=count,
        )
    )
    taken = [
        draw(st.integers(min_value=0, max_value=total)) for total in executed
    ]
    return executed, taken


def make_run(executed, taken, instructions=None):
    table = [BranchId("f", index) for index in range(len(executed))]
    return RunResult(
        program="p",
        instructions=instructions or (sum(executed) * 7 + 13),
        branch_table=table,
        branch_exec=list(executed),
        branch_taken=list(taken),
        events=ControlEvents(),
        output=b"",
        exit_code=0,
    )


def profile_from(executed, taken):
    return BranchProfile.from_run(make_run(executed, taken))


# -- evaluation invariants ---------------------------------------------------------


@given(branch_counts())
@settings(max_examples=200, deadline=None)
def test_self_prediction_is_optimal(counts):
    executed, taken = counts
    run = make_run(executed, taken)
    best = self_prediction(run).mispredicted
    assert best == sum(min(t, e - t) for e, t in zip(executed, taken))
    for predictor in (
        FixedPredictor(True),
        FixedPredictor(False),
        ProfilePredictor(profile_from(executed, taken), default=True),
    ):
        assert evaluate_static(run, predictor).mispredicted >= best


@given(branch_counts())
@settings(max_examples=200, deadline=None)
def test_taken_plus_not_taken_mispredictions_cover_all(counts):
    executed, taken = counts
    run = make_run(executed, taken)
    always = evaluate_static(run, FixedPredictor(True)).mispredicted
    never = evaluate_static(run, FixedPredictor(False)).mispredicted
    assert always + never == sum(executed)


@given(branch_counts())
@settings(max_examples=200, deadline=None)
def test_percent_correct_bounds(counts):
    executed, taken = counts
    run = make_run(executed, taken)
    report = self_prediction(run)
    assert 0.5 <= report.percent_correct <= 1.0
    assert report.mispredicted + report.correct == report.branch_execs


# -- combining invariants --------------------------------------------------------------


@given(st.lists(branch_counts(), min_size=1, max_size=5))
@settings(max_examples=100, deadline=None)
def test_unscaled_combination_preserves_totals(count_sets):
    profiles = [profile_from(e, t) for e, t in count_sets]
    combined = combine_profiles(profiles, mode="unscaled")
    assert combined.total_executed == sum(p.total_executed for p in profiles)
    assert combined.total_taken == sum(p.total_taken for p in profiles)


@given(st.lists(branch_counts(), min_size=1, max_size=5))
@settings(max_examples=100, deadline=None)
def test_scaled_combination_gives_unit_weight(count_sets):
    profiles = [profile_from(e, t) for e, t in count_sets]
    nonempty = [p for p in profiles if p.total_executed]
    combined = combine_profiles(profiles, mode="scaled")
    assert abs(combined.total_executed - len(nonempty)) < 1e-9


@given(st.lists(branch_counts(), min_size=1, max_size=5))
@settings(max_examples=100, deadline=None)
def test_polling_counts_votes(count_sets):
    profiles = [profile_from(e, t) for e, t in count_sets]
    combined = combine_profiles(profiles, mode="polling")
    for branch_id, (votes, taken_votes) in combined.counts.items():
        appearing = sum(1 for p in profiles if branch_id in p)
        assert votes == appearing
        assert 0 <= taken_votes <= votes


@given(branch_counts())
@settings(max_examples=100, deadline=None)
def test_single_profile_combination_preserves_directions(counts):
    executed, taken = counts
    profile = profile_from(executed, taken)
    for mode in ("scaled", "unscaled"):
        combined = combine_profiles([profile], mode=mode)
        for branch_id in profile:
            assert combined.direction(branch_id) == profile.direction(branch_id)


# -- serialization ---------------------------------------------------------------------


@given(branch_counts())
@settings(max_examples=100, deadline=None)
def test_profile_dict_round_trip(counts):
    executed, taken = counts
    profile = profile_from(executed, taken)
    restored = BranchProfile.from_dict(profile.to_dict())
    assert restored.counts == profile.counts


# -- metrics ------------------------------------------------------------------


@given(branch_counts(), st.integers(0, 1000))
@settings(max_examples=100, deadline=None)
def test_ipb_monotone_in_breaks(counts, mispredicted):
    from repro.metrics.breaks import unavoidable_breaks

    executed, taken = counts
    run = make_run(executed, taken)

    def report(misses):
        return PredictionReport(
            program=run.program, predictor="p",
            instructions=run.instructions,
            branch_execs=run.total_branch_execs, mispredicted=misses,
            unavoidable_breaks=unavoidable_breaks(run),
        )

    few, many = report(mispredicted), report(mispredicted + 9)
    assert many.breaks == few.breaks + 9
    assert many.instructions_per_break <= few.instructions_per_break
