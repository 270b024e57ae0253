"""Run-length distributions between mispredicted branches (§3).

"The distribution of runs of instructions between mispredicted branches
will not be constant ... far more ILP will be available if one has 80
instructions followed by two mispredicted branches than if one has 40
instructions, a mispredicted branch.  Branches in real programs are not
evenly spaced."

For each program we attach a :class:`RunLengthMonitor` carrying the
run's own profile predictor (self-prediction; the ``runlengths(self)``
monitor spec) and record the actual gaps between mispredicted branches.
A coefficient of variation well above 0 (an evenly-spaced process would
sit near 0; a memoryless one near 1) quantifies the claim.
"""
from __future__ import annotations

import dataclasses
from typing import Dict, List, Tuple

from repro.core.parallel import RunRequest
from repro.core.runner import WorkloadRunner
from repro.core.specs import RUN_LENGTHS
from repro.experiments.report import TextTable

DEFAULT_PROGRAMS: List[Tuple[str, str]] = [
    ("li", "6queens"),
    ("gcc", "module1"),
    ("compress", "long"),
    ("espresso", "bca"),
    ("doduc", "small"),
    ("tomcatv", "default"),
]


@dataclasses.dataclass
class RunLengthRow:
    program: str
    dataset: str
    stats: Dict[str, float]


@dataclasses.dataclass
class RunLengthResult:
    rows: List[RunLengthRow]

    def find(self, program: str) -> RunLengthRow:
        for row in self.rows:
            if row.program == program:
                return row
        raise KeyError(program)

    def format_text(self) -> str:
        table = TextTable(
            "Instruction run lengths between mispredicted branches "
            "(self-prediction)",
            ["program", "dataset", "breaks", "mean", "median", "p10", "p90",
             "cv"],
        )
        for row in self.rows:
            stats = row.stats
            table.add_row(
                row.program, row.dataset,
                int(stats["count"]), stats["mean"], stats["median"],
                stats["p10"], stats["p90"], f"{stats['cv']:.2f}",
            )
        table.add_note(
            "cv = stddev/mean; evenly-spaced breaks would give cv near 0 — "
            "the paper's point is that real programs are far from that"
        )
        return table.format_text()


def requests(programs=DEFAULT_PROGRAMS) -> List[RunRequest]:
    return [
        RunRequest(program, dataset, monitors=(RUN_LENGTHS,))
        for program, dataset in programs
    ]


def run(
    runner: WorkloadRunner,
    programs=DEFAULT_PROGRAMS,
) -> RunLengthResult:
    rows = [
        RunLengthRow(program=program, dataset=dataset, stats=stats)
        for (program, dataset), (stats,) in zip(
            programs, runner.run_many(requests(programs))
        )
    ]
    return RunLengthResult(rows=rows)
