"""Figures 3a & 3b: best and worst single-dataset cross prediction.

"Considering the best possible prediction (using a dataset to predict
itself) to be 100%, we show how close to that we come with the best other
dataset, and how close we come with the worst."
"""
from __future__ import annotations

import dataclasses
from typing import List

from repro.core.experiment import BestWorstPrediction, CrossDatasetExperiment
from repro.core.runner import WorkloadRunner
from repro.experiments import figure2
from repro.experiments.report import TextTable


@dataclasses.dataclass
class Figure3Result:
    spice_bars: List[BestWorstPrediction]   # Figure 3a
    c_bars: List[BestWorstPrediction]       # Figure 3b

    def all_bars(self) -> List[BestWorstPrediction]:
        return self.spice_bars + self.c_bars

    def format_chart(self) -> str:
        """Paired-bar ASCII rendering of both panels (linear percent)."""
        from repro.experiments.charts import ascii_bars

        panels = []
        for title, bars in (
            ("Figure 3a (chart): spice2g6 best/worst, % of self",
             self.spice_bars),
            ("Figure 3b (chart): C/integer best/worst, % of self",
             self.c_bars),
        ):
            panels.append(
                ascii_bars(
                    title,
                    [
                        (f"{bar.workload}/{bar.dataset}", bar.best_percent,
                         bar.worst_percent)
                        for bar in bars
                    ],
                    black_legend="best other dataset",
                    white_legend="worst other dataset",
                    log=False,
                )
            )
        return "\n\n".join(panels)

    def format_text(self) -> str:
        sections = []
        for title, bars in (
            ("Figure 3a: spice2g6, best/worst single-dataset predictors",
             self.spice_bars),
            ("Figure 3b: C/integer, best/worst single-dataset predictors",
             self.c_bars),
        ):
            table = TextTable(
                title,
                ["program", "dataset", "best %", "(which)", "worst %", "(which)"],
            )
            for bar in bars:
                table.add_row(
                    bar.workload,
                    bar.dataset,
                    f"{bar.best_percent:.0f}%",
                    bar.best_other,
                    f"{bar.worst_percent:.0f}%",
                    bar.worst_other,
                )
            sections.append(table.format_text())
        return "\n\n".join(sections)


#: Figure 3 measures the panels of Figure 2.
requests = figure2.requests


def run(runner: WorkloadRunner) -> Figure3Result:
    spice_bars, c_bars = figure2.studied_panels(
        runner, CrossDatasetExperiment.best_worst
    )
    return Figure3Result(spice_bars=spice_bars, c_bars=c_bars)
