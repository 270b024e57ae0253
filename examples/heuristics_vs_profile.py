"""Static heuristics vs profile feedback vs dynamic hardware prediction.

Reproduces, on two contrasting workloads, the comparisons the paper makes:

* loop/non-loop heuristics "gave up about a factor of two" against profile
  feedback (§3 informal observations);
* simple dynamic schemes (1-bit, 2-bit counters) for context.

Run:  python examples/heuristics_vs_profile.py
"""
from repro.core import RunRequest, WorkloadRunner
from repro.metrics import ipb_no_prediction, ipb_self_prediction, ipb_with_predictor
from repro.prediction import (
    FixedPredictor,
    LoopHeuristicPredictor,
    OpcodeHeuristicPredictor,
    ProfilePredictor,
    evaluate_static,
    self_prediction,
)
from repro.profiling import BranchProfile

CASES = [("li", "6queens", "5queens"), ("tomcatv", "default", "default")]


def main() -> None:
    runner = WorkloadRunner()
    for workload, target_name, training_name in CASES:
        compiled = runner.compiled(workload)
        target = runner.run(workload, target_name)
        training_profile = BranchProfile.from_run(
            runner.run(workload, training_name)
        )

        print(f"=== {workload} / {target_name} "
              f"({target.instructions} instructions)")
        print(f"  {'unpredicted':24s} {ipb_no_prediction(target):8.1f} "
              f"instrs/break")

        predictors = [
            FixedPredictor(False),
            FixedPredictor(True),
            OpcodeHeuristicPredictor(compiled.module),
            LoopHeuristicPredictor(compiled.module),
            ProfilePredictor(training_profile, name=f"profile({training_name})"),
        ]
        for predictor in predictors:
            ipb = ipb_with_predictor(target, predictor)
            correct = evaluate_static(target, predictor).percent_correct
            print(f"  {predictor.name:24s} {ipb:8.1f} instrs/break "
                  f"({100 * correct:5.1f}% correct)")
        print(f"  {'self (upper bound)':24s} "
              f"{ipb_self_prediction(target):8.1f} instrs/break")

        # Dynamic predictors observe the run live: a request carrying the
        # infinite-table 1-bit and 2-bit counters' specs answers with
        # their scores, both from one monitored run.
        counters = RunRequest(
            workload, target_name, monitors=("1bit@inf", "2bit@inf")
        )
        one_bit, two_bit = runner.run_many([counters])[0]
        static_correct = self_prediction(target).percent_correct
        print(f"  dynamic 1-bit {100 * one_bit.percent_correct:5.1f}% correct, "
              f"2-bit {100 * two_bit.percent_correct:5.1f}%, "
              f"static-self {100 * static_correct:5.1f}%\n")


if __name__ == "__main__":
    main()
