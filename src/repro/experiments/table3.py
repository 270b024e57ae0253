"""Table 3: instructions per break for the FORTRAN programs with little
dataset variability, under the best possible (self) prediction.

"Table 3 lists the programs with only one meaningful dataset.  We believe
that any reasonable method will predict those programs' branch directions
almost perfectly."
"""
from __future__ import annotations

import dataclasses
from typing import List, Tuple

from repro.core.parallel import RunRequest
from repro.core.runner import WorkloadRunner
from repro.experiments.report import TextTable
from repro.metrics.ipb import ipb_self_prediction

#: (program, dataset) rows in the paper's order, with its reported values.
PAPER_TABLE3: List[Tuple[str, str, int]] = [
    ("tomcatv", "default", 7461),
    ("matrix300", "default", 4853),
    ("nasa7", "default", 3400),
    ("fpppp", "4atoms", 951),
    ("fpppp", "8atoms", 1028),
    ("lfk", "default", 399),
    ("doduc", "tiny", 257),
    ("doduc", "small", 269),
    ("doduc", "ref", 275),
]


@dataclasses.dataclass
class Table3Row:
    program: str
    dataset: str
    instructions_per_break: float
    paper_value: int


@dataclasses.dataclass
class Table3Result:
    rows: List[Table3Row]

    def ordering_matches_paper(self) -> bool:
        """Whether programs rank the same way as in the paper (per-program
        best value, descending)."""

        def ranking(values):
            best = {}
            for program, value in values:
                best[program] = max(best.get(program, 0.0), value)
            return sorted(best, key=best.get, reverse=True)

        ours = ranking(
            (row.program, row.instructions_per_break) for row in self.rows
        )
        paper = ranking((row.program, row.paper_value) for row in self.rows)
        return ours == paper

    def format_text(self) -> str:
        table = TextTable(
            "Table 3: instrs/break, FORTRAN programs with stable datasets",
            ["program", "dataset", "instrs/break", "paper"],
        )
        for row in self.rows:
            table.add_row(
                row.program,
                row.dataset,
                row.instructions_per_break,
                row.paper_value,
            )
        table.add_note(
            "self-prediction (each dataset predicts itself); absolute values "
            "are compressed by our smaller problem sizes"
        )
        return table.format_text()


def requests() -> List[RunRequest]:
    return [RunRequest(program, dataset) for program, dataset, _ in PAPER_TABLE3]


def run(runner: WorkloadRunner) -> Table3Result:
    rows = [
        Table3Row(
            program=program,
            dataset=dataset,
            instructions_per_break=ipb_self_prediction(result),
            paper_value=paper_value,
        )
        for (program, dataset, paper_value), result in zip(
            PAPER_TABLE3, runner.run_many(requests())
        )
    ]
    return Table3Result(rows=rows)
