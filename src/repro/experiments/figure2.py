"""Figures 2a & 2b: instructions per break when branches are predicted.

Black bars: best possible prediction (each dataset predicts itself).
White bars: the scaled sum of all other datasets predicts the target.
Figure 2a is spice2g6 alone; Figure 2b the C/integer programs.  Breaks are
mispredicted branches plus indirect calls and their returns.
"""
from __future__ import annotations

import dataclasses
from typing import Callable, List, Tuple, TypeVar

from repro.core.experiment import (
    CrossDatasetExperiment,
    DatasetPrediction,
    cross_dataset_experiments,
)
from repro.core.parallel import RunRequest, dataset_requests
from repro.core.runner import WorkloadRunner
from repro.experiments.report import TextTable
from repro.workloads.base import C
from repro.workloads.registry import all_workloads

SPICE = "spice2g6"


Bar = TypeVar("Bar")


def requests() -> List[RunRequest]:
    """Every dataset of the multi-dataset workloads Figures 2 and 3
    measure: spice2g6 and the C/integer programs (stable-dataset FORTRAN
    programs are Table 3)."""
    return dataset_requests(
        workload
        for workload in all_workloads()
        if len(workload.datasets) >= 2
        and (workload.name == SPICE or workload.category == C)
    )


def studied_panels(
    runner: WorkloadRunner,
    bar: Callable[[CrossDatasetExperiment, str], Bar],
) -> Tuple[List[Bar], List[Bar]]:
    """One ``bar(experiment, dataset)`` per dataset of ``requests()``, as
    (spice2g6 panel, C/integer panel)."""
    batch = requests()
    experiments = cross_dataset_experiments(
        dict(zip(batch, runner.run_many(batch)))
    )
    spice_bars: List[Bar] = []
    c_bars: List[Bar] = []
    for name, experiment in experiments.items():
        bucket = spice_bars if name == SPICE else c_bars
        for dataset in experiment.dataset_names():
            bucket.append(bar(experiment, dataset))
    return spice_bars, c_bars


@dataclasses.dataclass
class Figure2Result:
    spice_bars: List[DatasetPrediction]   # Figure 2a
    c_bars: List[DatasetPrediction]       # Figure 2b

    def all_bars(self) -> List[DatasetPrediction]:
        return self.spice_bars + self.c_bars

    def format_chart(self) -> str:
        """Paired-bar ASCII rendering of both panels."""
        from repro.experiments.charts import ascii_bars

        panels = []
        for title, bars in (
            ("Figure 2a (chart): spice2g6, predicted", self.spice_bars),
            ("Figure 2b (chart): C/integer, predicted", self.c_bars),
        ):
            panels.append(
                ascii_bars(
                    title,
                    [
                        (f"{bar.workload}/{bar.dataset}", bar.ipb_self,
                         bar.ipb_combined)
                        for bar in bars
                    ],
                    black_legend="self (best possible)",
                    white_legend="scaled sum of others",
                )
            )
        return "\n\n".join(panels)

    def format_text(self) -> str:
        sections = []
        for title, bars in (
            ("Figure 2a: spice2g6, instrs per break (predicted)", self.spice_bars),
            ("Figure 2b: C/integer, instrs per break (predicted)", self.c_bars),
        ):
            table = TextTable(
                title,
                [
                    "program", "dataset",
                    "black (self)", "white (sum of others)", "% of best",
                ],
            )
            for bar in bars:
                table.add_row(
                    bar.workload,
                    bar.dataset,
                    bar.ipb_self,
                    bar.ipb_combined,
                    f"{100 * bar.combined_fraction_of_self:.0f}%",
                )
            sections.append(table.format_text())
        return "\n\n".join(sections)


def run(runner: WorkloadRunner) -> Figure2Result:
    spice_bars, c_bars = studied_panels(
        runner, CrossDatasetExperiment.dataset_prediction
    )
    return Figure2Result(spice_bars=spice_bars, c_bars=c_bars)
