"""Candidate sets for a trace scheduler: why the paper wants predictions.

Selects traces through the lisp interpreter's hottest functions using
(a) profile-guided prediction and (b) naive always-not-taken prediction,
then compares the *expected useful instructions* a trace scheduler would
see along each trace — the candidate-set size the paper's introduction is
all about.

Run:  python examples/trace_scheduling.py
"""
from repro.core import WorkloadRunner
from repro.prediction import FixedPredictor, ProfilePredictor
from repro.profiling import BranchProfile
from repro.tracesched import candidate_set_report, select_traces

FUNCTIONS = ["eval", "apply", "read_expr"]


def main() -> None:
    runner = WorkloadRunner()
    compiled = runner.compiled("li")
    profile = BranchProfile.from_run(runner.run("li", "6queens"))

    print("expected useful instructions per selected trace, li/6queens\n")
    print(f"{'function':12s} {'traces':>7s} {'profile-guided':>15s} "
          f"{'always-not-taken':>17s}")
    for name in FUNCTIONS:
        func = compiled.module.function(name)
        guided_traces = select_traces(func, ProfilePredictor(profile))
        naive_traces = select_traces(func, FixedPredictor(False))
        guided = candidate_set_report(func, guided_traces, profile)
        naive = candidate_set_report(func, naive_traces, profile)
        print(f"{name:12s} {len(guided_traces):7d} "
              f"{guided.best_expected:15.1f} {naive.best_expected:17.1f}")

    print("\n(the larger the expected length, the more data-ready "
          "instructions a VLIW scheduler can consider per cycle)")


if __name__ == "__main__":
    main()
