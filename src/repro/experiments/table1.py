"""Table 1: dynamic dead code that dead code elimination would remove.

"We approximated that effect by measuring the amount of dead code that the
compiler would have eliminated for each of the SPEC benchmarks."

We compile each SPEC-analog program twice — the paper configuration (DCE
off) and the DCE configuration — run both on every dataset, and report
``1 - ops(with DCE) / ops(without)``, exactly the paper's dynamic measure.
"""
from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from repro.core.parallel import RunRequest, dataset_requests
from repro.core.runner import RunConfig, WorkloadRunner
from repro.experiments.report import TextTable
from repro.workloads.registry import get_workload

#: The paper's Table 1 values (percent dynamic dead code).
PAPER_DEAD_CODE = {
    "li": 0.00,
    "fpppp": 0.01,
    "spice2g6": 0.01,
    "gcc": 0.02,
    "doduc": 0.02,
    "eqntott": 0.04,
    "tomcatv": 0.14,
    "espresso": 0.18,
    "nasa7": 0.20,
    "matrix300": 0.29,
}


@dataclasses.dataclass
class Table1Row:
    program: str
    instructions_default: int
    instructions_dce: int
    dead_fraction: float
    paper_dead_fraction: Optional[float]


@dataclasses.dataclass
class Table1Result:
    rows: List[Table1Row]

    def by_program(self) -> Dict[str, Table1Row]:
        return {row.program: row for row in self.rows}

    def format_text(self) -> str:
        table = TextTable(
            "Table 1: dynamic dead code removable by DCE",
            ["program", "ops (DCE off)", "ops (DCE on)", "dead %", "paper %"],
        )
        for row in self.rows:
            paper = (
                f"{100 * row.paper_dead_fraction:.0f}%"
                if row.paper_dead_fraction is not None
                else "-"
            )
            table.add_row(
                row.program,
                row.instructions_default,
                row.instructions_dce,
                f"{100 * row.dead_fraction:.1f}%",
                paper,
            )
        table.add_note(
            "dead % = 1 - ops(DCE on)/ops(DCE off), summed over all datasets"
        )
        return table.format_text()


def requests() -> List[RunRequest]:
    """Every dataset of every SPEC-analog program, without and with DCE."""
    return dataset_requests(
        [get_workload(program) for program in PAPER_DEAD_CODE],
        configs=(RunConfig(), RunConfig(dce=True)),
    )


def run(runner: WorkloadRunner) -> Table1Result:
    """Measure Table 1 over every SPEC-analog program."""
    batch = requests()
    totals: Dict[Tuple[str, RunConfig], int] = {}
    for request, result in zip(batch, runner.run_many(batch)):
        key = (request.workload, request.config)
        totals[key] = totals.get(key, 0) + result.instructions
    rows: List[Table1Row] = []
    for program in PAPER_DEAD_CODE:
        default_total = totals[(program, RunConfig())]
        dce_total = totals[(program, RunConfig(dce=True))]
        rows.append(
            Table1Row(
                program=program,
                instructions_default=default_total,
                instructions_dce=dce_total,
                dead_fraction=1.0 - dce_total / default_total,
                paper_dead_fraction=PAPER_DEAD_CODE.get(program),
            )
        )
    rows.sort(key=lambda row: row.dead_fraction)
    return Table1Result(rows=rows)
