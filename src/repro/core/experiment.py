"""Cross-dataset prediction experiments — the paper's core methodology.

"We used these counts as predictors, one per dataset, and measured how well
they performed predicting the other datasets.  We then combined the results
of runs to form new predictors.  Sometimes we used the run we were trying to
predict as its own predictor" (§2, General Methodology).
"""
from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.compiler import RunConfig
from repro.core.parallel import RunRequest
from repro.metrics.ipb import ipb_no_prediction, ipb_with_predictor
from repro.prediction.base import ProfilePredictor, StaticPredictor
from repro.prediction.combine import database_predict
from repro.prediction.evaluate import PredictionReport, evaluate_static
from repro.profiling.branch_profile import BranchProfile
from repro.profiling.database import ProfileDatabase
from repro.vm.counters import RunResult


def fraction_of_bound(ipb: float, bound: float) -> float:
    """An IPB as a fraction of the self-prediction bound; 0.0 when the
    bound is 0."""
    return ipb / bound if bound else 0.0


@dataclasses.dataclass
class DatasetPrediction:
    """Figure 2 numbers for one target dataset."""

    workload: str
    dataset: str
    instructions: int
    ipb_unpredicted: float
    ipb_self: float          # black bar: best possible prediction
    ipb_combined: float      # white bar: scaled sum of the other datasets

    @property
    def combined_fraction_of_self(self) -> float:
        """How much of the best-possible IPB the summary predictor achieves."""
        return fraction_of_bound(self.ipb_combined, self.ipb_self)


@dataclasses.dataclass
class BestWorstPrediction:
    """Figure 3 numbers for one target dataset: single-other-dataset
    predictors as a percentage of the self-prediction bound."""

    workload: str
    dataset: str
    best_other: Optional[str]
    worst_other: Optional[str]
    best_percent: float
    worst_percent: float


class CrossDatasetExperiment:
    """All predictor/target combinations for one workload, over its
    runs: dataset name -> result, such as ``runner.run_all(name)``."""

    def __init__(self, workload_name: str, runs: Mapping[str, RunResult]):
        self.workload_name = workload_name
        self.runs = dict(runs)
        self._database: Optional[ProfileDatabase] = None

    @property
    def database(self) -> ProfileDatabase:
        """One profile per dataset, recorded from that dataset's run."""
        if self._database is None:
            self._database = ProfileDatabase()
            for name, run in self.runs.items():
                self._database.record(run, name)
        return self._database

    def dataset_names(self) -> List[str]:
        return list(self.runs.keys())

    def profile(self, dataset: str) -> BranchProfile:
        return self.database.dataset_profile(self.workload_name, dataset)

    # -- predictors ---------------------------------------------------------

    def self_predictor(self, dataset: str) -> StaticPredictor:
        return ProfilePredictor(self.profile(dataset), name="self")

    def single_predictor(self, predictor_dataset: str) -> StaticPredictor:
        return ProfilePredictor(
            self.profile(predictor_dataset), name=predictor_dataset
        )

    def combined_predictor(
        self, exclude: Optional[str] = None, mode: str = "scaled"
    ) -> StaticPredictor:
        """The summary predictor over every dataset but ``exclude``
        (Figure 2 white bars); ``None`` combines them all."""
        combined, _ = database_predict(
            self.database, self.workload_name, mode=mode, exclude=exclude
        )
        return ProfilePredictor(combined, name=f"sum-others({mode})")

    # -- measurements ---------------------------------------------------------

    def ipb(self, target: str, predictor: StaticPredictor) -> float:
        return ipb_with_predictor(self.runs[target], predictor)

    def quality(self, target: str, predictor: StaticPredictor) -> float:
        """``predictor``'s IPB on ``target`` as a fraction of the
        self-prediction bound (see :func:`fraction_of_bound`)."""
        bound = self.ipb(target, self.self_predictor(target))
        return fraction_of_bound(self.ipb(target, predictor), bound)

    def report(self, target: str, predictor: StaticPredictor) -> PredictionReport:
        return evaluate_static(self.runs[target], predictor)

    def dataset_prediction(self, target: str) -> DatasetPrediction:
        """Figure 2: self vs leave-one-out scaled summary, for one dataset."""
        run = self.runs[target]
        return DatasetPrediction(
            workload=self.workload_name,
            dataset=target,
            instructions=run.instructions,
            ipb_unpredicted=ipb_no_prediction(run),
            ipb_self=self.ipb(target, self.self_predictor(target)),
            ipb_combined=self.ipb(target, self.combined_predictor(target)),
        )

    def best_worst(self, target: str) -> BestWorstPrediction:
        """Figure 3: the best and worst single other dataset, as a percent
        of the self-prediction bound."""
        self_ipb = self.ipb(target, self.self_predictor(target))
        best_name = worst_name = None
        best = -1.0
        worst = float("inf")
        for other in self.dataset_names():
            if other == target:
                continue
            value = self.ipb(target, self.single_predictor(other))
            if value > best:
                best, best_name = value, other
            if value < worst:
                worst, worst_name = value, other
        if best_name is None:
            raise ValueError(
                f"workload {self.workload_name!r} needs 2+ datasets for "
                f"best/worst analysis"
            )
        return BestWorstPrediction(
            workload=self.workload_name,
            dataset=target,
            best_other=best_name,
            worst_other=worst_name,
            best_percent=100.0 * best / self_ipb if self_ipb else 0.0,
            worst_percent=100.0 * worst / self_ipb if self_ipb else 0.0,
        )

    def pairwise_matrix(self) -> Dict[Tuple[str, str], float]:
        """(predictor, target) -> instructions per break, all pairs."""
        matrix: Dict[Tuple[str, str], float] = {}
        for target in self.dataset_names():
            for predictor_name in self.dataset_names():
                if predictor_name == target:
                    predictor = self.self_predictor(target)
                else:
                    predictor = self.single_predictor(predictor_name)
                matrix[(predictor_name, target)] = self.ipb(target, predictor)
        return matrix


def cross_dataset_experiments(
    answers: Mapping[RunRequest, Any]
) -> Dict[str, CrossDatasetExperiment]:
    """One experiment per workload over a batch's answers: each takes the
    plain paper-configuration runs of its workload, in batch order."""
    runs: Dict[str, Dict[str, RunResult]] = {}
    for request, answer in answers.items():
        if not request.monitors and request.config == RunConfig():
            runs.setdefault(request.workload, {})[request.dataset] = answer
    return {
        name: CrossDatasetExperiment(name, by_dataset)
        for name, by_dataset in runs.items()
    }
