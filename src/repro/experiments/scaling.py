"""Dataset-size sensitivity of cross prediction (the spice observation).

"In spice2g6, the worst cases came about when a dataset was used to predict
another that ran over 20,000 times as long."  For every ordered
(predictor, target) pair of every multi-dataset workload we relate the
run-length ratio to prediction quality, and report the spice pairs
explicitly.
"""
from __future__ import annotations

import dataclasses
import math
from typing import List

from repro.core.experiment import cross_dataset_experiments
from repro.core.parallel import RunRequest, dataset_requests
from repro.core.runner import WorkloadRunner
from repro.experiments.coverage import pearson
from repro.experiments.report import TextTable
from repro.workloads.registry import multi_dataset_workloads


@dataclasses.dataclass
class ScalingPair:
    workload: str
    predictor: str
    target: str
    #: target instructions / predictor instructions.
    length_ratio: float
    #: pairwise IPB / self IPB.
    quality: float


@dataclasses.dataclass
class ScalingResult:
    pairs: List[ScalingPair]
    #: Pearson r between |log10(length ratio)| and quality, all pairs.
    correlation: float

    def spice_pairs(self) -> List[ScalingPair]:
        return [pair for pair in self.pairs if pair.workload == "spice2g6"]

    def worst_spice_pair(self) -> ScalingPair:
        return min(self.spice_pairs(), key=lambda pair: pair.quality)

    def format_text(self) -> str:
        table = TextTable(
            "Run-length ratio vs cross-prediction quality (spice2g6 pairs)",
            ["predictor", "target", "target/predictor length", "quality"],
        )
        for pair in sorted(self.spice_pairs(), key=lambda p: p.quality)[:10]:
            table.add_row(
                pair.predictor,
                pair.target,
                f"{pair.length_ratio:.1f}x",
                f"{100 * pair.quality:.0f}%",
            )
        table.add_note(
            f"all-pairs Pearson r(|log10 ratio|, quality) = "
            f"{self.correlation:+.2f}; the paper's spice worst cases came "
            f"from predicting runs >20,000x longer (our scale is compressed)"
        )
        return table.format_text()


def requests() -> List[RunRequest]:
    return dataset_requests(multi_dataset_workloads())


def run(runner: WorkloadRunner) -> ScalingResult:
    batch = requests()
    experiments = cross_dataset_experiments(
        dict(zip(batch, runner.run_many(batch)))
    )
    pairs: List[ScalingPair] = []
    for workload, experiment in experiments.items():
        names = experiment.dataset_names()
        lengths = {
            name: experiment.runs[name].instructions for name in names
        }
        for target in names:
            for predictor_name in names:
                if predictor_name == target:
                    continue
                pairs.append(
                    ScalingPair(
                        workload=workload,
                        predictor=predictor_name,
                        target=target,
                        length_ratio=lengths[target] / lengths[predictor_name],
                        quality=experiment.quality(
                            target, experiment.single_predictor(predictor_name)
                        ),
                    )
                )
    correlation = pearson(
        [abs(math.log10(pair.length_ratio)) for pair in pairs],
        [pair.quality for pair in pairs],
    )
    return ScalingResult(pairs=pairs, correlation=correlation)
