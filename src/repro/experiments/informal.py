"""The paper's §3 "Informal Observations", made formal and repeatable.

* scaled vs. unscaled vs. polling summary predictors;
* simple loop/non-loop heuristics "gave up about a factor of two";
* branch percent-taken as a "program constant" (spread ≤ 9% except spice2g6);
* compress and uncompress do not predict each other;
* dynamic 1-bit / 2-bit hardware schemes for context (the 80–90% systems /
  95–100% FORTRAN numbers the paper cites from prior work).
"""
from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Mapping

from repro.core.experiment import cross_dataset_experiments
from repro.core.parallel import RunRequest, dataset_requests
from repro.core.runner import WorkloadRunner
from repro.core.specs import UNALIASED_COUNTERS
from repro.experiments.report import TextTable
from repro.metrics.ipb import ipb_self_prediction, ipb_with_predictor
from repro.prediction.combine import COMBINE_MODES
from repro.prediction.evaluate import self_prediction
from repro.prediction.heuristics import (
    LoopHeuristicPredictor,
    OpcodeHeuristicPredictor,
)
from repro.workloads.registry import (
    all_workloads,
    get_workload,
    multi_dataset_workloads,
)

#: The programs of the report's dynamic 1-/2-bit comparison.
DYNAMIC_PROGRAMS = ["li", "gcc", "compress", "tomcatv", "lfk", "doduc"]

#: The comparison's monitors: the paper's cited schemes, infinite-table
#: (unaliased) 1-bit and 2-bit counters, one per static branch.
COUNTERS = tuple(UNALIASED_COUNTERS)

#: What each section reads: the answers to ``requests()``, by request.
Answers = Mapping[RunRequest, Any]


def requests() -> List[RunRequest]:
    """Every section's runs: each dataset of every workload, and the
    counters' runs of the datasets of ``DYNAMIC_PROGRAMS``."""
    plain = dataset_requests(all_workloads())
    return plain + [
        dataclasses.replace(request, monitors=COUNTERS)
        for request in plain
        if request.workload in DYNAMIC_PROGRAMS
    ]


# --- scaled vs unscaled vs polling ------------------------------------------


@dataclasses.dataclass
class CombineModeRow:
    program: str
    #: mode -> mean leave-one-out IPB as a fraction of self IPB.
    fraction_of_self: Dict[str, float]


@dataclasses.dataclass
class CombineModeResult:
    rows: List[CombineModeRow]

    def mean_fraction(self, mode: str) -> float:
        values = [row.fraction_of_self[mode] for row in self.rows]
        return sum(values) / len(values) if values else 0.0

    def format_text(self) -> str:
        table = TextTable(
            "Summary predictors: scaled vs unscaled vs polling "
            "(mean leave-one-out IPB / self IPB)",
            ["program"] + list(COMBINE_MODES),
        )
        for row in self.rows:
            table.add_row(
                row.program,
                *(f"{100 * row.fraction_of_self[m]:.0f}%" for m in COMBINE_MODES),
            )
        table.add_row(
            "MEAN",
            *(f"{100 * self.mean_fraction(m):.0f}%" for m in COMBINE_MODES),
        )
        table.add_note(
            "paper: scaled and unscaled indistinguishable on average; "
            "polling poor"
        )
        return table.format_text()


def combine_modes(answers: Answers) -> CombineModeResult:
    rows: List[CombineModeRow] = []
    for name, experiment in cross_dataset_experiments(answers).items():
        if len(experiment.dataset_names()) < 2:
            continue
        fractions = {mode: [] for mode in COMBINE_MODES}
        for target in experiment.dataset_names():
            for mode in COMBINE_MODES:
                fractions[mode].append(
                    experiment.quality(
                        target, experiment.combined_predictor(target, mode=mode)
                    )
                )
        rows.append(
            CombineModeRow(
                program=name,
                fraction_of_self={
                    mode: sum(vals) / len(vals) for mode, vals in fractions.items()
                },
            )
        )
    return CombineModeResult(rows=rows)


# --- simple heuristics --------------------------------------------------------


@dataclasses.dataclass
class HeuristicRow:
    program: str
    dataset: str
    ipb_self: float
    ipb_loop_heuristic: float
    ipb_opcode_heuristic: float

    @property
    def loop_factor(self) -> float:
        """How many times worse the loop heuristic is than profile feedback."""
        if self.ipb_loop_heuristic == 0:
            return float("inf")
        return self.ipb_self / self.ipb_loop_heuristic


@dataclasses.dataclass
class HeuristicResult:
    rows: List[HeuristicRow]

    def mean_loop_factor(self) -> float:
        factors = [row.loop_factor for row in self.rows]
        return sum(factors) / len(factors) if factors else 0.0

    def format_text(self) -> str:
        table = TextTable(
            "Simple opcode/loop heuristics vs profile feedback (instrs/break)",
            ["program", "dataset", "profile(self)", "loop-heur", "opcode-heur",
             "self/loop factor"],
        )
        for row in self.rows:
            table.add_row(
                row.program,
                row.dataset,
                row.ipb_self,
                row.ipb_loop_heuristic,
                row.ipb_opcode_heuristic,
                f"{row.loop_factor:.1f}x",
            )
        table.add_note(
            f"mean factor {self.mean_loop_factor():.1f}x — the paper reports "
            "heuristics 'usually gave up about a factor of two'"
        )
        return table.format_text()


def heuristics(runner: WorkloadRunner, answers: Answers) -> HeuristicResult:
    rows: List[HeuristicRow] = []
    for workload in all_workloads():
        compiled = runner.compiled(workload.name)
        loop_predictor = LoopHeuristicPredictor(compiled.module)
        opcode_predictor = OpcodeHeuristicPredictor(compiled.module)
        for dataset in workload.dataset_names():
            result = answers[RunRequest(workload.name, dataset)]
            rows.append(
                HeuristicRow(
                    program=workload.name,
                    dataset=dataset,
                    ipb_self=ipb_self_prediction(result),
                    ipb_loop_heuristic=ipb_with_predictor(result, loop_predictor),
                    ipb_opcode_heuristic=ipb_with_predictor(
                        result, opcode_predictor
                    ),
                )
            )
    return HeuristicResult(rows=rows)


# --- percent taken as a program constant ------------------------------------------


@dataclasses.dataclass
class PercentTakenRow:
    program: str
    per_dataset: Dict[str, float]

    @property
    def spread(self) -> float:
        values = list(self.per_dataset.values())
        return max(values) - min(values)


@dataclasses.dataclass
class PercentTakenResult:
    rows: List[PercentTakenRow]

    def format_text(self) -> str:
        table = TextTable(
            "Branch percent-taken per dataset (a 'program constant')",
            ["program", "min", "max", "spread"],
        )
        for row in sorted(self.rows, key=lambda r: r.spread):
            values = list(row.per_dataset.values())
            table.add_row(
                row.program,
                f"{100 * min(values):.0f}%",
                f"{100 * max(values):.0f}%",
                f"{100 * row.spread:.0f}%",
            )
        table.add_note(
            "paper: spice2g6 spread 21%..76%; all other programs within 9%"
        )
        return table.format_text()


def percent_taken(answers: Answers) -> PercentTakenResult:
    rows: List[PercentTakenRow] = []
    for workload in multi_dataset_workloads():
        per_dataset = {
            dataset: answers[RunRequest(workload.name, dataset)].percent_taken()
            for dataset in workload.dataset_names()
        }
        rows.append(PercentTakenRow(program=workload.name, per_dataset=per_dataset))
    return PercentTakenResult(rows=rows)


# --- compress vs uncompress ----------------------------------------------------------


@dataclasses.dataclass
class CompressCrossResult:
    #: (target mode) -> mean IPB fraction of self when predicted by the
    #: other mode's combined profile.
    fraction_by_target: Dict[str, float]
    #: same-mode leave-one-out fraction for comparison.
    same_mode_fraction: Dict[str, float]

    def format_text(self) -> str:
        table = TextTable(
            "compress vs uncompress: one mode predicting the other",
            ["target mode", "same-mode predictor", "other-mode predictor"],
        )
        for mode in ("compress", "uncompress"):
            table.add_row(
                mode,
                f"{100 * self.same_mode_fraction[mode]:.0f}% of self",
                f"{100 * self.fraction_by_target[mode]:.0f}% of self",
            )
        table.add_note(
            "paper: 'there seemed to be no correlation between them. Using "
            "the data from one to predict the other is a very bad idea.'"
        )
        return table.format_text()


def compress_cross(answers: Answers) -> CompressCrossResult:
    experiments = cross_dataset_experiments(answers)
    fraction_by_target: Dict[str, float] = {}
    same_mode_fraction: Dict[str, float] = {}
    for target_mode, other_mode in (
        ("compress", "uncompress"),
        ("uncompress", "compress"),
    ):
        experiment = experiments[target_mode]
        other_predictor = experiments[other_mode].combined_predictor()
        cross_fractions = []
        same_fractions = []
        for dataset in experiment.dataset_names():
            cross_fractions.append(experiment.quality(dataset, other_predictor))
            same_fractions.append(
                experiment.quality(dataset, experiment.combined_predictor(dataset))
            )
        fraction_by_target[target_mode] = sum(cross_fractions) / len(cross_fractions)
        same_mode_fraction[target_mode] = sum(same_fractions) / len(same_fractions)
    return CompressCrossResult(
        fraction_by_target=fraction_by_target,
        same_mode_fraction=same_mode_fraction,
    )


# --- dynamic predictors (context) -------------------------------------------------


@dataclasses.dataclass
class DynamicRow:
    program: str
    dataset: str
    category: str
    static_self_accuracy: float
    one_bit_accuracy: float
    two_bit_accuracy: float


@dataclasses.dataclass
class DynamicResult:
    rows: List[DynamicRow]

    def mean_accuracy(self, category: str, field: str) -> float:
        values = [
            getattr(row, field) for row in self.rows if row.category == category
        ]
        return sum(values) / len(values) if values else 0.0

    def format_text(self) -> str:
        table = TextTable(
            "Dynamic (1-bit / 2-bit) vs static self prediction, % branches "
            "correct",
            ["program", "dataset", "static self", "1-bit", "2-bit"],
        )
        for row in self.rows:
            table.add_row(
                row.program,
                row.dataset,
                f"{100 * row.static_self_accuracy:.1f}%",
                f"{100 * row.one_bit_accuracy:.1f}%",
                f"{100 * row.two_bit_accuracy:.1f}%",
            )
        table.add_note(
            "context for the paper's citation of [Smith 81]/[Lee and Smith "
            "84]: simple dynamic schemes get 80-90% on systems code, "
            "95-100% on scientific FORTRAN"
        )
        return table.format_text()


def dynamic_comparison(answers: Answers) -> DynamicResult:
    """One row per counters' run among ``answers``, in their order."""
    rows: List[DynamicRow] = []
    for request, answer in answers.items():
        if request.monitors != COUNTERS:
            continue
        one_bit, two_bit = answer
        rows.append(
            DynamicRow(
                program=request.workload,
                dataset=request.dataset,
                category=get_workload(request.workload).category,
                static_self_accuracy=self_prediction(
                    answers[request.plain()]
                ).percent_correct,
                one_bit_accuracy=one_bit.percent_correct,
                two_bit_accuracy=two_bit.percent_correct,
            )
        )
    return DynamicResult(rows=rows)


# --- cross-dataset static accuracy (percent correct, the 'wrong' measure) ---------


@dataclasses.dataclass
class WrongMeasureRow:
    """The fpppp-vs-li observation: percent-correct ranks programs wrongly."""

    program: str
    dataset: str
    percent_correct_self: float
    branch_density: float
    ipb_self: float


@dataclasses.dataclass
class WrongMeasureResult:
    rows: List[WrongMeasureRow]

    def find(self, program: str, dataset: str) -> WrongMeasureRow:
        for row in self.rows:
            if row.program == program and row.dataset == dataset:
                return row
        raise KeyError((program, dataset))

    def format_text(self) -> str:
        table = TextTable(
            "Why percent-correct is the wrong measure (fpppp vs li)",
            ["program", "dataset", "% correct (self)", "instrs/branch",
             "instrs/break"],
        )
        for row in self.rows:
            table.add_row(
                row.program,
                row.dataset,
                f"{100 * row.percent_correct_self:.1f}%",
                row.branch_density,
                row.ipb_self,
            )
        table.add_note(
            "paper: fpppp 83% vs li 85% correct — nearly equal — yet fpppp "
            "branches every ~170 instructions and li every ~10"
        )
        return table.format_text()


def wrong_measure(answers: Answers) -> WrongMeasureResult:
    rows: List[WrongMeasureRow] = []
    for program, dataset in (
        ("fpppp", "4atoms"),
        ("fpppp", "8atoms"),
        ("li", "5queens"),
        ("li", "6queens"),
        ("li", "kittyv"),
        ("li", "sieve1"),
    ):
        result = answers[RunRequest(program, dataset)]
        report = self_prediction(result)
        rows.append(
            WrongMeasureRow(
                program=program,
                dataset=dataset,
                percent_correct_self=report.percent_correct,
                branch_density=result.instructions / result.total_branch_execs,
                ipb_self=ipb_self_prediction(result),
            )
        )
    return WrongMeasureResult(rows=rows)


# --- the whole report -----------------------------------------------------------


@dataclasses.dataclass
class InformalResult:
    """Every informal observation, one field per section, in report order."""

    combine_modes: CombineModeResult
    heuristics: HeuristicResult
    percent_taken: PercentTakenResult
    compress_cross: CompressCrossResult
    wrong_measure: WrongMeasureResult
    dynamic_comparison: DynamicResult

    def format_text(self) -> str:
        return "\n\n".join(
            getattr(self, field.name).format_text()
            for field in dataclasses.fields(self)
        )


def run(runner: WorkloadRunner) -> InformalResult:
    batch = requests()
    answers = dict(zip(batch, runner.run_many(batch)))
    return InformalResult(
        combine_modes=combine_modes(answers),
        heuristics=heuristics(runner, answers),
        percent_taken=percent_taken(answers),
        compress_cross=compress_cross(answers),
        wrong_measure=wrong_measure(answers),
        dynamic_comparison=dynamic_comparison(answers),
    )
