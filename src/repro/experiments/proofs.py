"""Static proofs experiment: the zero-profile point on the paper's axis.

The paper measures how far profile-based static prediction closes the gap
between no prediction and perfect (self-profile) prediction.  The prover
adds the missing third point: branches a compiler can *prove*
unidirectional with no profile at all.  This experiment reports, per
workload, the proven-branch coverage (static sites and dynamic executions)
and where proofs land on the instructions-per-mispredict axis relative to
the heuristics, cross-profile (leave-one-out combined), and self-profile
predictors.
"""
from __future__ import annotations

import dataclasses
from typing import List, Optional

from repro.analysis.prover import ProofVerdict
from repro.core.experiment import cross_dataset_experiments
from repro.core.parallel import RunRequest, dataset_requests
from repro.core.runner import WorkloadRunner
from repro.experiments.report import TextTable
from repro.metrics.ipb import ipb_no_prediction, ipb_with_predictor
from repro.prediction.heuristics import LoopHeuristicPredictor
from repro.prediction.proofs import StaticProofPredictor
from repro.workloads.registry import all_workloads


@dataclasses.dataclass
class ProofRow:
    """Per-workload proven-branch coverage and prediction quality."""

    program: str
    branch_sites: int
    proven_sites: int
    #: Fraction of dynamic branch executions at proven sites (all datasets).
    dynamic_coverage: float
    #: Instructions-per-mispredict means across the workload's datasets.
    ipb_none: float
    ipb_proofs: float
    ipb_heuristic: float
    #: None for single-dataset workloads (no other run to predict from).
    ipb_cross: Optional[float]
    ipb_self: float

    @property
    def static_coverage(self) -> float:
        if not self.branch_sites:
            return 0.0
        return self.proven_sites / self.branch_sites

    @property
    def gap_recovered(self) -> float:
        """Fraction of the none -> self-profile IPB gap proofs recover."""
        gap = self.ipb_self - self.ipb_none
        if gap <= 0:
            return 0.0
        return (self.ipb_proofs - self.ipb_none) / gap


@dataclasses.dataclass
class ProofsResult:
    rows: List[ProofRow]

    def format_text(self) -> str:
        table = TextTable(
            "Static branch-direction proofs: coverage and the zero-profile "
            "point on the IPB axis",
            [
                "program",
                "sites",
                "proven",
                "%sites",
                "%execs",
                "ipb none",
                "proofs",
                "heuristic",
                "cross",
                "self",
                "%gap",
            ],
        )
        for row in self.rows:
            table.add_row(
                row.program,
                row.branch_sites,
                row.proven_sites,
                f"{100.0 * row.static_coverage:.1f}",
                f"{100.0 * row.dynamic_coverage:.1f}",
                row.ipb_none,
                row.ipb_proofs,
                row.ipb_heuristic,
                row.ipb_cross,
                row.ipb_self,
                f"{100.0 * row.gap_recovered:.1f}",
            )
        total_sites = sum(row.branch_sites for row in self.rows)
        total_proven = sum(row.proven_sites for row in self.rows)
        table.add_note(
            f"{total_proven}/{total_sites} static branch sites proven; "
            "IPB columns are arithmetic means over each workload's datasets"
        )
        table.add_note(
            "proofs = proven directions + not-taken fallback (zero profile "
            "data); cross = leave-one-out combined profile (scaled); a "
            "proven branch never mispredicts by construction"
        )
        return table.format_text()


def requests() -> List[RunRequest]:
    return dataset_requests(all_workloads())


def run(runner: WorkloadRunner) -> ProofsResult:
    batch = requests()
    experiments = cross_dataset_experiments(
        dict(zip(batch, runner.run_many(batch)))
    )
    rows: List[ProofRow] = []
    for name, experiment in experiments.items():
        compiled = runner.compiled(name)
        proof_predictor = StaticProofPredictor(compiled.module)
        heuristic = LoopHeuristicPredictor(compiled.module)
        proofs = proof_predictor.proofs
        proven_ids = {
            proof.branch_id
            for proof in proofs
            if proof.verdict is not ProofVerdict.UNKNOWN
        }

        proven_execs = 0
        total_execs = 0
        none_values: List[float] = []
        proof_values: List[float] = []
        heuristic_values: List[float] = []
        cross_values: List[float] = []
        self_values: List[float] = []
        datasets = experiment.dataset_names()
        for dataset in datasets:
            result = experiment.runs[dataset]
            for branch_id, (executed, _) in result.branch_counts().items():
                total_execs += executed
                if branch_id in proven_ids:
                    proven_execs += executed
            none_values.append(ipb_no_prediction(result))
            proof_values.append(ipb_with_predictor(result, proof_predictor))
            heuristic_values.append(ipb_with_predictor(result, heuristic))
            if len(datasets) > 1:
                cross_values.append(
                    experiment.ipb(
                        dataset, experiment.combined_predictor(dataset)
                    )
                )
            self_values.append(
                experiment.ipb(dataset, experiment.self_predictor(dataset))
            )

        def mean(values: List[float]) -> float:
            return sum(values) / len(values) if values else 0.0

        rows.append(
            ProofRow(
                program=name,
                branch_sites=len(proofs),
                proven_sites=len(proven_ids),
                dynamic_coverage=(
                    proven_execs / total_execs if total_execs else 0.0
                ),
                ipb_none=mean(none_values),
                ipb_proofs=mean(proof_values),
                ipb_heuristic=mean(heuristic_values),
                ipb_cross=mean(cross_values) if cross_values else None,
                ipb_self=mean(self_values),
            )
        )
    return ProofsResult(rows=rows)
