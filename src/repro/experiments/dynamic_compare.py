"""Static profile prediction vs finite hardware predictors, head to head.

The paper's comparison with [Smith 81]/[Lee and Smith 84] is one line of
context; this experiment makes it a full axis.  For every (workload,
dataset) it scores, against the *same* run:

* **static-self** — the run predicting itself (the static upper bound);
* **static-cross** — the paper's recommended predictor, the scaled
  leave-one-out sum of the workload's other datasets;
* the hardware zoo — bimodal, gshare, two-level local and tournament
  predictors at several table sizes, with real aliasing.

Both the traditional percent-correct and the paper's instructions-per-
mispredict measures are reported, so the headline question — *where does
cross-run profile prediction hold up against hardware, and where does it
lose?* — is answerable per program and per hardware budget.

The static rows are scored from the run's counters, as the paper did;
only the hardware models need the live outcome stream.  The plain
(monitor-free) runs are prewarmed through ``run_many``, so ``--jobs N``
fans the simulations across processes; the monitored scoring passes are
deterministic re-executions and happen in-process, which keeps serial
and parallel output byte-identical.
"""
from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Tuple

from repro.core.experiment import CrossDatasetExperiment
from repro.core.parallel import dataset_requests
from repro.core.runner import WorkloadRunner
from repro.dynamic.score import DynamicScoreMonitor
from repro.dynamic.zoo import DEFAULT_TABLE_SIZES, default_zoo
from repro.experiments.charts import ascii_bars
from repro.experiments.report import TextTable

#: Default program set: FORTRAN (doduc, fpppp) vs systems C (gcc,
#: compress), all with 2+ datasets so the cross predictor exists.  The
#: big C programs (li, espresso, eqntott) work too but triple the
#: simulation time; pass ``programs=`` to sweep them.
DEFAULT_PROGRAMS = ["doduc", "fpppp", "compress", "gcc"]

#: Static rows always present in the comparison, in report order.
STATIC_PREDICTORS = ("static-self", "static-cross")


@dataclasses.dataclass
class DynamicCompareRow:
    """One (program, dataset, predictor) cell of the sweep."""

    program: str
    dataset: str
    predictor: str
    table_size: Optional[int]
    budget_bits: Optional[int]
    branch_execs: int
    mispredicted: int
    percent_correct: float
    ipb: float


@dataclasses.dataclass
class DynamicCompareResult:
    """The full sweep, plus aggregation and rendering."""

    rows: List[DynamicCompareRow]
    programs: List[str]
    table_sizes: Tuple[int, ...]
    predictor_order: List[str]

    # -- aggregation ---------------------------------------------------------

    def rows_for(
        self, program: str, predictor: str
    ) -> List[DynamicCompareRow]:
        return [
            row
            for row in self.rows
            if row.program == program and row.predictor == predictor
        ]

    def mean_percent_correct(self, program: str, predictor: str) -> float:
        rows = self.rows_for(program, predictor)
        return sum(row.percent_correct for row in rows) / len(rows)

    def mean_ipb(self, program: str, predictor: str) -> float:
        rows = self.rows_for(program, predictor)
        return sum(row.ipb for row in rows) / len(rows)

    def overall_mean_ipb(self, predictor: str) -> float:
        values = [
            self.mean_ipb(program, predictor) for program in self.programs
        ]
        return sum(values) / len(values) if values else 0.0

    # -- rendering -----------------------------------------------------------

    def format_text(self) -> str:
        table = TextTable(
            "Dynamic vs static prediction "
            "(mean over datasets; instrs/mispredict counts unavoidable "
            "breaks)",
            ["program", "predictor", "table", "budget (bits)", "% correct",
             "instrs/mispredict", "vs static-self"],
        )
        for program in self.programs:
            for predictor in self.predictor_order:
                rows = self.rows_for(program, predictor)
                if not rows:
                    continue
                sample = rows[0]
                self_ipb = self.mean_ipb(program, "static-self")
                ipb = self.mean_ipb(program, predictor)
                table.add_row(
                    program,
                    predictor,
                    "-" if sample.table_size is None else sample.table_size,
                    "-" if sample.budget_bits is None else sample.budget_bits,
                    f"{100 * self.mean_percent_correct(program, predictor):.1f}%",
                    f"{ipb:.1f}",
                    f"{100 * ipb / self_ipb:.0f}%" if self_ipb else "-",
                )
        table.add_note(
            "static-self = run predicts itself (static bound); static-cross "
            "= scaled leave-one-out profile, the paper's predictor"
        )
        table.add_note(
            "hardware rows simulate finite tables with aliasing; budgets "
            "count counter, history and chooser bits"
        )
        return table.format_text()

    def format_chart(self) -> str:
        bars = [
            (predictor, self.overall_mean_ipb(predictor), None)
            for predictor in self.predictor_order
        ]
        return ascii_bars(
            "Mean instrs/mispredict by predictor "
            f"(over {', '.join(self.programs)})",
            bars,
            black_legend="instrs per mispredict or unavoidable break",
        )


def run(
    runner: Optional[WorkloadRunner] = None,
    programs: Optional[Sequence[str]] = None,
    table_sizes: Sequence[int] = DEFAULT_TABLE_SIZES,
) -> DynamicCompareResult:
    """Sweep programs x datasets x predictors x table sizes."""
    if runner is None:
        runner = WorkloadRunner()
    program_names = list(DEFAULT_PROGRAMS if programs is None else programs)
    sizes = tuple(sorted(table_sizes))

    workloads = [runner.workload(name) for name in program_names]
    for workload in workloads:
        if len(workload.dataset_names()) < 2:
            raise ValueError(
                f"workload {workload.name!r} has a single dataset; the "
                "cross predictor needs 2+ (pick another or drop it)"
            )
    # Prewarm the profile runs (the parallel fan-out path); the monitored
    # scoring re-executions below are deterministic and in-process.
    runner.run_many(dataset_requests(workloads))

    rows: List[DynamicCompareRow] = []
    predictor_order = list(STATIC_PREDICTORS)
    predictor_order.extend(model.name for model in default_zoo(sizes))
    for workload in workloads:
        experiment = CrossDatasetExperiment(runner, workload.name)
        branch_table = runner.compiled(workload.name).lowered.branch_table
        for dataset in workload.dataset_names():
            static_reports = [
                experiment.report(dataset, experiment.self_predictor(dataset)),
                experiment.report(
                    dataset, experiment.combined_predictor(dataset)
                ),
            ]
            monitor = DynamicScoreMonitor(default_zoo(sizes), branch_table)
            run_result = runner.run(
                workload.name, dataset, monitors=[monitor]
            )
            reports = static_reports + monitor.scores(run_result)
            for predictor, report in zip(predictor_order, reports):
                rows.append(
                    DynamicCompareRow(
                        program=workload.name,
                        dataset=dataset,
                        predictor=predictor,
                        table_size=report.table_size,
                        budget_bits=report.budget_bits,
                        branch_execs=report.branch_execs,
                        mispredicted=report.mispredicted,
                        percent_correct=report.percent_correct,
                        ipb=report.instructions_per_break,
                    )
                )
    return DynamicCompareResult(
        rows=rows,
        programs=program_names,
        table_sizes=sizes,
        predictor_order=predictor_order,
    )
