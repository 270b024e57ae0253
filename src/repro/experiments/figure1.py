"""Figures 1a & 1b: instructions per break in control, branches NOT
predicted.

Black bars: conditional branches + indirect calls/returns are breaks.
White bars: direct calls and returns added.  (Jumps excluded — the paper
assumes an ILP compiler eliminates them by code layout.)
"""
from __future__ import annotations

import dataclasses
from typing import List

from repro.core.parallel import RunRequest, dataset_requests
from repro.core.runner import WorkloadRunner
from repro.experiments.report import TextTable
from repro.metrics.ipb import ipb_no_prediction
from repro.workloads.base import FORTRAN
from repro.workloads.registry import all_workloads, get_workload


@dataclasses.dataclass
class Figure1Bar:
    program: str
    dataset: str
    ipb_black: float          # without direct call/return breaks
    ipb_white: float          # with direct call/return breaks


@dataclasses.dataclass
class Figure1Result:
    fortran_bars: List[Figure1Bar]   # Figure 1a
    c_bars: List[Figure1Bar]         # Figure 1b

    def format_chart(self) -> str:
        """Paired-bar ASCII rendering of both panels."""
        from repro.experiments.charts import ascii_bars

        panels = []
        for title, bars in (
            ("Figure 1a (chart): FORTRAN/FP, no prediction", self.fortran_bars),
            ("Figure 1b (chart): C/integer, no prediction", self.c_bars),
        ):
            panels.append(
                ascii_bars(
                    title,
                    [
                        (f"{bar.program}/{bar.dataset}", bar.ipb_black,
                         bar.ipb_white)
                        for bar in bars
                    ],
                    black_legend="all branches are breaks",
                    white_legend="plus direct calls/returns",
                )
            )
        return "\n\n".join(panels)

    def format_text(self) -> str:
        sections = []
        for title, bars in (
            ("Figure 1a: FORTRAN/FP, instrs per break (no prediction)",
             self.fortran_bars),
            ("Figure 1b: C/integer, instrs per break (no prediction)",
             self.c_bars),
        ):
            table = TextTable(
                title,
                ["program", "dataset", "black (no call breaks)", "white (+calls)"],
            )
            for bar in bars:
                table.add_row(bar.program, bar.dataset, bar.ipb_black, bar.ipb_white)
            sections.append(table.format_text())
        return "\n\n".join(sections)


def requests() -> List[RunRequest]:
    return dataset_requests(all_workloads())


def run(runner: WorkloadRunner) -> Figure1Result:
    fortran_bars: List[Figure1Bar] = []
    c_bars: List[Figure1Bar] = []
    batch = requests()
    for request, result in zip(batch, runner.run_many(batch)):
        workload = get_workload(request.workload)
        bucket = fortran_bars if workload.category == FORTRAN else c_bars
        bucket.append(
            Figure1Bar(
                program=request.workload,
                dataset=request.dataset,
                ipb_black=ipb_no_prediction(result, include_direct_calls=False),
                ipb_white=ipb_no_prediction(result, include_direct_calls=True),
            )
        )
    return Figure1Result(fortran_bars=fortran_bars, c_bars=c_bars)
