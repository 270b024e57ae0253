"""Ablations for the compiler switches the paper's measurements kept off.

* **Inlining** — "An executed call that is not inlined will cost two breaks
  in control...  Below we show the instructions per break in control with
  calls and returns left in and with them ignored.  The differences in our
  sample set are reasonably small."  The ablation inlines small leaf
  procedures and re-measures Figure 1's black/white gap.
* **If-conversion** — the paper suppressed it because it deletes branches;
  the ablation measures how many branch executions it would have removed
  and what that does to instructions per break.
"""
from __future__ import annotations

import dataclasses
from typing import List, Mapping

from repro.core.parallel import RunRequest
from repro.core.runner import RunConfig, WorkloadRunner
from repro.experiments.report import TextTable
from repro.metrics.ipb import ipb_no_prediction, ipb_self_prediction
from repro.vm.counters import RunResult

#: Call-heavy programs where the ablations are most interesting.
PROGRAMS = [
    ("li", "sieve1"),
    ("gcc", "module6"),
    ("spice2g6", "greybig"),
    ("doduc", "small"),
    ("lfk", "default"),
]

INLINE = RunConfig(inline=True)
IF_CONVERSION = RunConfig(if_conversion=True)

#: Each ablation's runs, by request.
Runs = Mapping[RunRequest, RunResult]


def requests() -> List[RunRequest]:
    """The base, inlined and if-converted run of every ablated triple."""
    return [
        RunRequest(program, dataset, config)
        for program, dataset in PROGRAMS
        for config in (RunConfig(), INLINE, IF_CONVERSION)
    ]


# --- inlining ------------------------------------------------------------------


@dataclasses.dataclass
class InliningRow:
    program: str
    dataset: str
    calls_base: int
    calls_inlined: int
    ipb_with_calls_base: float      # Figure 1 white bar, no inlining
    ipb_with_calls_inlined: float   # same, with inlining
    ipb_self_base: float
    ipb_self_inlined: float


@dataclasses.dataclass
class InliningResult:
    rows: List[InliningRow]

    def format_text(self) -> str:
        table = TextTable(
            "Inlining ablation: direct-call breaks and instrs/break",
            ["program", "dataset", "calls", "calls(inl)",
             "white-IPB", "white-IPB(inl)", "self-IPB", "self-IPB(inl)"],
        )
        for row in self.rows:
            table.add_row(
                row.program, row.dataset,
                row.calls_base, row.calls_inlined,
                row.ipb_with_calls_base, row.ipb_with_calls_inlined,
                row.ipb_self_base, row.ipb_self_inlined,
            )
        table.add_note(
            "white-IPB counts direct calls/returns as breaks (Figure 1 "
            "white bars); inlining removes small-leaf call pairs"
        )
        return table.format_text()


def inlining(runs: Runs) -> InliningResult:
    rows: List[InliningRow] = []
    for program, dataset in PROGRAMS:
        base = runs[RunRequest(program, dataset)]
        inlined = runs[RunRequest(program, dataset, INLINE)]
        rows.append(
            InliningRow(
                program=program,
                dataset=dataset,
                calls_base=base.events.direct_calls,
                calls_inlined=inlined.events.direct_calls,
                ipb_with_calls_base=ipb_no_prediction(
                    base, include_direct_calls=True
                ),
                ipb_with_calls_inlined=ipb_no_prediction(
                    inlined, include_direct_calls=True
                ),
                ipb_self_base=ipb_self_prediction(base),
                ipb_self_inlined=ipb_self_prediction(inlined),
            )
        )
    return InliningResult(rows=rows)


# --- if-conversion -----------------------------------------------------------------


@dataclasses.dataclass
class IfConversionRow:
    program: str
    dataset: str
    branch_execs_base: int
    branch_execs_converted: int
    selects_base: int
    selects_converted: int
    ipb_self_base: float
    ipb_self_converted: float

    @property
    def branch_reduction(self) -> float:
        if self.branch_execs_base == 0:
            return 0.0
        return 1.0 - self.branch_execs_converted / self.branch_execs_base


@dataclasses.dataclass
class IfConversionResult:
    rows: List[IfConversionRow]

    def format_text(self) -> str:
        table = TextTable(
            "If-conversion ablation: branch executions and instrs/break",
            ["program", "dataset", "branch execs", "after ifconv",
             "reduction", "selects", "selects(conv)", "self-IPB",
             "self-IPB(conv)"],
        )
        for row in self.rows:
            table.add_row(
                row.program, row.dataset,
                row.branch_execs_base, row.branch_execs_converted,
                f"{100 * row.branch_reduction:.1f}%",
                row.selects_base, row.selects_converted,
                row.ipb_self_base, row.ipb_self_converted,
            )
        table.add_note(
            "the paper suppressed if-conversion so the studied branches "
            "stayed in the code; the tiny dynamic effect matches its "
            "footnote 2 (selects were under 0.7% of executed operations)"
        )
        return table.format_text()


def if_conversion(runs: Runs) -> IfConversionResult:
    rows: List[IfConversionRow] = []
    for program, dataset in PROGRAMS:
        base = runs[RunRequest(program, dataset)]
        converted = runs[RunRequest(program, dataset, IF_CONVERSION)]
        rows.append(
            IfConversionRow(
                program=program,
                dataset=dataset,
                branch_execs_base=base.total_branch_execs,
                branch_execs_converted=converted.total_branch_execs,
                selects_base=base.events.selects,
                selects_converted=converted.events.selects,
                ipb_self_base=ipb_self_prediction(base),
                ipb_self_converted=ipb_self_prediction(converted),
            )
        )
    return IfConversionResult(rows=rows)


# --- both ablations ---------------------------------------------------------------


@dataclasses.dataclass
class AblationsResult:
    """Both ablations, one field per section, in report order."""

    inlining: InliningResult
    if_conversion: IfConversionResult

    def format_text(self) -> str:
        return "\n\n".join(
            getattr(self, field.name).format_text()
            for field in dataclasses.fields(self)
        )


def run(runner: WorkloadRunner) -> AblationsResult:
    batch = requests()
    runs = dict(zip(batch, runner.run_many(batch)))
    return AblationsResult(inlining=inlining(runs), if_conversion=if_conversion(runs))
