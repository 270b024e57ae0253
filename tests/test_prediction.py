"""Predictor and evaluation tests."""
import pytest

from repro.compiler import compile_source
from repro.ir.instructions import BranchId
from repro.prediction import (
    FixedPredictor,
    LoopHeuristicPredictor,
    OpcodeHeuristicPredictor,
    ProfilePredictor,
    combine_profiles,
    evaluate_static,
    self_prediction,
)
from repro.prediction.combine import database_predict
from repro.profiling import BranchProfile, ProfileDatabase

from tests.helpers import combine_without, compile_and_run

BIASED_LOOP = """
func main() {
    var i; var n = 0;
    for (i = 0; i < 20; i += 1) {
        if (i % 4 == 0) { n += 1; }
    }
    return n;
}
"""


def make_profile(counts):
    profile = BranchProfile(program="p")
    for (func, index), (executed, taken) in counts.items():
        profile.counts[BranchId(func, index)] = (float(executed), float(taken))
    return profile


def test_profile_predictor_majority():
    profile = make_profile({("f", 0): (10, 9), ("f", 1): (10, 2)})
    predictor = ProfilePredictor(profile)
    assert predictor.predict(BranchId("f", 0)) is True
    assert predictor.predict(BranchId("f", 1)) is False


def test_profile_predictor_default_for_unseen():
    profile = make_profile({})
    assert ProfilePredictor(profile).predict(BranchId("f", 0)) is False
    assert ProfilePredictor(profile, default=True).predict(BranchId("f", 0)) is True


def test_fixed_predictors():
    assert FixedPredictor(True).predict(BranchId("f", 0)) is True
    assert FixedPredictor(False).predict(BranchId("f", 0)) is False


def test_evaluate_static_counts_mispredictions():
    run = compile_and_run(BIASED_LOOP)
    # Predict everything taken: loop branch right 20/21, inner right 5/20.
    report = evaluate_static(run, FixedPredictor(True))
    assert report.mispredicted == 1 + 15
    report_nt = evaluate_static(run, FixedPredictor(False))
    assert report_nt.mispredicted == 20 + 5


def test_self_prediction_is_a_lower_bound_on_misses():
    run = compile_and_run(BIASED_LOOP)
    best = self_prediction(run)
    assert best.mispredicted == 1 + 5  # loop exit + taken minority
    for predictor in (FixedPredictor(True), FixedPredictor(False)):
        assert evaluate_static(run, predictor).mispredicted >= best.mispredicted


def test_report_properties():
    run = compile_and_run(BIASED_LOOP)
    report = self_prediction(run)
    assert report.branch_execs == 41
    assert report.correct == 41 - 6
    assert report.percent_correct == pytest.approx(35 / 41)
    assert report.breaks == report.mispredicted  # no indirect calls here
    assert report.instructions_per_break == pytest.approx(
        run.instructions / 6
    )


def test_loop_heuristic_predicts_backedges_taken():
    program = compile_source(BIASED_LOOP)
    run = compile_and_run(BIASED_LOOP)
    heuristic = LoopHeuristicPredictor(program.module)
    # Loop branch (index 0) predicted taken; inner if (index 1) not-taken.
    assert heuristic.predict(BranchId("main", 0)) is True
    assert heuristic.predict(BranchId("main", 1)) is False
    report = evaluate_static(run, heuristic)
    assert report.mispredicted == 1 + 5  # as good as self-prediction here


def test_opcode_heuristic_uses_comparison():
    source = """
    func main() {
        var i; var n = 0;
        for (i = 0; i < 10; i += 1) {
            if (i == 3) { n += 1; }
            if (i != 3) { n += 1; }
        }
        return n;
    }
    """
    program = compile_source(source)
    heuristic = OpcodeHeuristicPredictor(program.module)
    branch_ids = sorted(program.module.branch_ids())
    directions = [heuristic.predict(bid) for bid in branch_ids]
    # for-loop i<10 -> taken; == -> not-taken; != -> taken.
    assert directions == [True, False, True]


def test_combine_unscaled_sums_counts():
    a = make_profile({("f", 0): (100, 90)})
    b = make_profile({("f", 0): (10, 1)})
    combined = combine_profiles([a, b], mode="unscaled")
    assert combined.counts[BranchId("f", 0)] == (110.0, 91.0)
    assert combined.direction(BranchId("f", 0)) is True


def test_combine_scaled_gives_equal_weight():
    # Unscaled, the huge dataset wins; scaled, both count equally and the
    # small dataset's strong bias flips the majority.
    a = make_profile({("f", 0): (1000, 550)})   # weak taken bias, huge
    b = make_profile({("f", 0): (10, 0)})       # strong not-taken bias, tiny
    unscaled = combine_profiles([a, b], mode="unscaled")
    scaled = combine_profiles([a, b], mode="scaled")
    assert unscaled.direction(BranchId("f", 0)) is True
    assert scaled.direction(BranchId("f", 0)) is False


def test_combine_polling_one_vote_each():
    a = make_profile({("f", 0): (1000, 900)})
    b = make_profile({("f", 0): (10, 1)})
    c = make_profile({("f", 0): (10, 1)})
    polled = combine_profiles([a, b, c], mode="polling")
    assert polled.counts[BranchId("f", 0)] == (3.0, 1.0)
    assert polled.direction(BranchId("f", 0)) is False


def test_combine_runs_accounting_consistent_across_modes():
    """``runs`` is the total underlying runs of the contributing profiles
    in *every* mode — polling used to report the profile count instead,
    and scaled/unscaled silently included empty profiles."""
    a = make_profile({("f", 0): (10, 9)})
    a.runs = 3
    b = make_profile({("f", 0): (10, 1)})
    b.runs = 2
    for mode in ("scaled", "unscaled", "polling"):
        assert combine_profiles([a, b], mode=mode).runs == 5, mode


def test_combine_skips_empty_profiles_deliberately():
    empty = make_profile({("g", 7): (0, 0)})
    empty.runs = 4
    loaded = make_profile({("f", 0): (10, 9)})
    loaded.runs = 1
    for mode in ("scaled", "unscaled", "polling"):
        combined = combine_profiles([loaded, empty], mode=mode)
        # The empty profile contributes neither runs nor branch sites.
        assert combined.runs == 1, mode
        assert BranchId("g", 7) not in combined, mode
        assert BranchId("f", 0) in combined, mode


def test_combine_all_empty_returns_empty_summary():
    combined = combine_profiles([make_profile({})], mode="scaled")
    assert len(combined) == 0
    assert combined.runs == 0


def test_leave_one_out_skips_empty_profiles():
    profiles = [
        make_profile({("f", 0): (10, 10)}),
        make_profile({}),
        make_profile({("f", 0): (10, 0)}),
    ]
    loo = combine_without(profiles, 2, "unscaled")
    assert loo.counts[BranchId("f", 0)] == (10.0, 10.0)


def test_combine_rejects_bad_mode_and_empty():
    with pytest.raises(ValueError):
        combine_profiles([], mode="scaled")
    with pytest.raises(ValueError):
        combine_profiles([make_profile({})], mode="bogus")


def database_of(profiles):
    database = ProfileDatabase()
    for index, profile in enumerate(profiles):
        database.record_profile("p", f"d{index}", profile)
    return database


def test_leave_one_out_excludes_target():
    database = database_of([
        make_profile({("f", 0): (10, 10)}),
        make_profile({("f", 0): (10, 0)}),
        make_profile({("f", 0): (10, 10)}),
    ])
    loo, datasets = database_predict(database, "p", "unscaled", exclude="d1")
    assert datasets == ["d0", "d2"]
    assert loo.counts[BranchId("f", 0)] == (20.0, 20.0)


def test_leave_one_out_needs_two_profiles():
    database = database_of([make_profile({("f", 0): (10, 10)})])
    with pytest.raises(ValueError):
        database_predict(database, "p", exclude="d0")
