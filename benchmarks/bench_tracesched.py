"""Ablation benchmark: candidate-set sizes by predictor quality.

DESIGN.md calls out trace selection as the motivating consumer of static
prediction; this bench regenerates the profile-vs-heuristic-vs-naive
candidate-set comparison over the lisp interpreter's hot functions.
"""
from repro.prediction import (
    FixedPredictor,
    LoopHeuristicPredictor,
    ProfilePredictor,
)
from repro.profiling import BranchProfile
from repro.tracesched import compare_predictors

FUNCTIONS = ["eval", "apply", "evlis", "read_expr"]


def _ablation(runner):
    compiled = runner.compiled("li")
    profile = BranchProfile.from_run(runner.run("li", "6queens"))
    predictors = {
        "profile": ProfilePredictor(profile),
        "loop-heuristic": LoopHeuristicPredictor(compiled.module),
        "always-not-taken": FixedPredictor(False),
    }
    return {
        name: compare_predictors(
            compiled.module.function(name), profile, predictors
        )
        for name in FUNCTIONS
    }


def test_candidate_set_ablation(benchmark, runner):
    reports = benchmark(_ablation, runner)
    print()
    print(f"{'function':12s} {'profile':>9s} {'loop-heur':>10s} {'naive':>8s}"
          f"   (best expected useful instrs)")
    for name, by_predictor in reports.items():
        profile_best = by_predictor["profile"].best_expected
        loop_best = by_predictor["loop-heuristic"].best_expected
        naive_best = by_predictor["always-not-taken"].best_expected
        print(f"{name:12s} {profile_best:9.1f} {loop_best:10.1f} "
              f"{naive_best:8.1f}")
        assert profile_best >= naive_best - 1e-9
