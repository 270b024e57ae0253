"""Cross-dataset prediction for one workload (a single-program Figure 2/3).

Shows, for the lisp interpreter:

* the pairwise predictor/target matrix (every dataset predicting every
  other),
* the best-possible (self) bound,
* the scaled-sum leave-one-out predictor the paper recommends.

Run:  python examples/cross_dataset_prediction.py [workload]
"""
import sys

from repro.core import CrossDatasetExperiment, WorkloadRunner


def main() -> None:
    workload_name = sys.argv[1] if len(sys.argv) > 1 else "li"
    runner = WorkloadRunner()
    experiment = CrossDatasetExperiment(workload_name, runner.run_all(workload_name))
    names = experiment.dataset_names()
    if len(names) < 2:
        raise SystemExit(f"{workload_name} has only one dataset")

    print(f"instructions per break for '{workload_name}' "
          f"(rows = predictor, columns = target; diagonal = self)\n")
    width = max(len(name) for name in names) + 2
    header = " " * width + "".join(name.rjust(width) for name in names)
    print(header)
    matrix = experiment.pairwise_matrix()
    for predictor_name in names:
        cells = "".join(
            f"{matrix[(predictor_name, target)]:{width}.1f}" for target in names
        )
        print(predictor_name.ljust(width) + cells)

    print("\nleave-one-out scaled sum (the paper's recommended predictor):")
    for target in names:
        prediction = experiment.dataset_prediction(target)
        best_worst = experiment.best_worst(target)
        print(f"  {target:12s} self {prediction.ipb_self:7.1f}   "
              f"sum-of-others {prediction.ipb_combined:7.1f} "
              f"({100 * prediction.combined_fraction_of_self:4.0f}% of best; "
              f"single-dataset worst {best_worst.worst_percent:.0f}% "
              f"via {best_worst.worst_other})")


if __name__ == "__main__":
    main()
