"""Table 2: the program and dataset sample base (inventory)."""
from __future__ import annotations

import dataclasses
from typing import List

from repro.core.parallel import RunRequest
from repro.core.runner import WorkloadRunner
from repro.experiments.report import TextTable
from repro.workloads.base import FORTRAN
from repro.workloads.registry import all_workloads


@dataclasses.dataclass
class Table2Row:
    program: str
    category: str
    description: str
    datasets: List[str]


@dataclasses.dataclass
class Table2Result:
    rows: List[Table2Row]

    def format_text(self) -> str:
        table = TextTable(
            "Table 2: programs tested and their datasets",
            ["program", "category", "datasets"],
        )
        for row in self.rows:
            table.add_row(row.program, row.category, ", ".join(row.datasets))
        return table.format_text()


def requests() -> List[RunRequest]:
    """The inventory runs nothing."""
    return []


def run(runner: WorkloadRunner) -> Table2Result:
    """Produce the inventory (runner accepted for interface uniformity)."""
    rows = [
        Table2Row(
            program=workload.name,
            category="FORTRAN/FP" if workload.category == FORTRAN else "C/integer",
            description=workload.description,
            datasets=workload.dataset_names(),
        )
        for workload in all_workloads()
    ]
    return Table2Result(rows=rows)
