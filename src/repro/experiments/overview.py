"""Suite overview: the headline numbers for every (program, dataset) run.

Not a paper table as such — it is the measurement substrate behind all of
them (branch density, percent taken, IPB with and without prediction), in
one place.  EXPERIMENTS.md quotes from it.
"""
from __future__ import annotations

import dataclasses
from typing import List

from repro.core.parallel import RunRequest, dataset_requests
from repro.core.runner import WorkloadRunner
from repro.experiments.report import TextTable
from repro.metrics.summary import RunSummary
from repro.workloads.base import FORTRAN
from repro.workloads.registry import all_workloads


@dataclasses.dataclass
class OverviewResult:
    rows: List[RunSummary]
    categories: dict

    def total_instructions(self) -> int:
        return sum(row.instructions for row in self.rows)

    def find(self, program: str, dataset: str) -> RunSummary:
        for row in self.rows:
            if row.program == program and row.dataset == dataset:
                return row
        raise KeyError((program, dataset))

    def format_text(self) -> str:
        table = TextTable(
            "Suite overview: per-run measurements",
            ["program", "dataset", "instrs", "instrs/branch", "taken",
             "IPB none", "IPB self", "% correct"],
        )
        for row in self.rows:
            table.add_row(
                row.program,
                row.dataset,
                row.instructions,
                row.branch_density,
                f"{100 * row.percent_taken:.0f}%",
                row.ipb_unpredicted,
                row.ipb_self,
                f"{100 * row.percent_correct_self:.1f}%",
            )
        table.add_note(
            f"{len(self.rows)} runs, {self.total_instructions()} simulated "
            f"operations in total"
        )
        return table.format_text()


def requests() -> List[RunRequest]:
    return dataset_requests(all_workloads())


def run(runner: WorkloadRunner) -> OverviewResult:
    batch = requests()
    rows = [
        RunSummary.from_run(result, request.dataset)
        for request, result in zip(batch, runner.run_many(batch))
    ]
    categories = {
        workload.name: "fortran" if workload.category == FORTRAN else "c"
        for workload in all_workloads()
    }
    return OverviewResult(rows=rows, categories=categories)
