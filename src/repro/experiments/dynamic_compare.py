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
only the hardware models need the live outcome stream.  The 12 zoo
models of a dataset are one monitored request whose specs are the
models' names; its run carries 6 passes (each size's tournament also
advances its bimodal and gshare components; see ``monitors_for``).
The plain runs and the monitored ones are one ``run_many`` batch, so
``--jobs N`` fans the plain simulations across processes; the monitored
runs are deterministic and happen in-process, which keeps serial and
parallel output byte-identical.
"""
from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Tuple

from repro.core.experiment import cross_dataset_experiments
from repro.core.parallel import RunRequest, dataset_requests
from repro.core.runner import WorkloadRunner
from repro.dynamic.zoo import DEFAULT_TABLE_SIZES, default_zoo
from repro.experiments.charts import ascii_bars
from repro.experiments.report import TextTable
from repro.workloads.registry import get_workload

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


def _zoo_specs(table_sizes: Sequence[int]) -> Tuple[str, ...]:
    """The monitor specs of the zoo at ``table_sizes``: its models' names."""
    return tuple(model.name for model in default_zoo(table_sizes))


def requests(
    programs: Optional[Sequence[str]] = None,
    table_sizes: Sequence[int] = DEFAULT_TABLE_SIZES,
) -> List[RunRequest]:
    """Every dataset of ``programs``, plain and with the zoo attached."""
    workloads = [
        get_workload(name)
        for name in (DEFAULT_PROGRAMS if programs is None else programs)
    ]
    for workload in workloads:
        if len(workload.dataset_names()) < 2:
            raise ValueError(
                f"workload {workload.name!r} has a single dataset; the "
                "cross predictor needs 2+ (pick another or drop it)"
            )
    plain = dataset_requests(workloads)
    zoo = _zoo_specs(table_sizes)
    return plain + [
        RunRequest(request.workload, request.dataset, monitors=zoo)
        for request in plain
    ]


def run(
    runner: WorkloadRunner,
    programs: Optional[Sequence[str]] = None,
    table_sizes: Sequence[int] = DEFAULT_TABLE_SIZES,
) -> DynamicCompareResult:
    """Sweep programs x datasets x predictors x table sizes."""
    program_names = list(DEFAULT_PROGRAMS if programs is None else programs)
    batch = requests(program_names, table_sizes)
    answers = dict(zip(batch, runner.run_many(batch)))
    sizes = tuple(sorted(table_sizes))
    zoo = _zoo_specs(sizes)
    predictor_order = list(STATIC_PREDICTORS) + list(zoo)
    rows: List[DynamicCompareRow] = []
    for name, experiment in cross_dataset_experiments(answers).items():
        for dataset in experiment.dataset_names():
            reports = [
                experiment.report(dataset, experiment.self_predictor(dataset)),
                experiment.report(
                    dataset, experiment.combined_predictor(dataset)
                ),
                *answers[RunRequest(name, dataset, monitors=zoo)],
            ]
            for predictor, report in zip(predictor_order, reports):
                rows.append(
                    DynamicCompareRow(
                        program=name,
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
