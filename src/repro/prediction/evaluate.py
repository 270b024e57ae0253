"""Evaluating a static predictor against a target run.

Because a static predictor fixes one direction per branch, mispredictions
are computable from the target run's aggregate (executed, taken) counters:
a branch predicted taken mispredicts ``executed - taken`` times, one
predicted not-taken mispredicts ``taken`` times.  No trace replay is needed
— this is exactly how the paper could measure with counters alone.
"""
from __future__ import annotations

import dataclasses
from typing import Optional

from repro.prediction.base import ProfilePredictor, StaticPredictor
from repro.profiling.branch_profile import BranchProfile
from repro.vm.counters import RunResult


@dataclasses.dataclass
class PredictionReport:
    """How one predictor did against one run.

    Static predictors are scored from counters by ``evaluate_static``;
    dynamic models are scored live by ``DynamicScoreMonitor``, which also
    fills in the model's table size and hardware budget.
    """

    program: str
    predictor: str
    instructions: int
    branch_execs: int
    mispredicted: int
    #: Indirect calls plus their returns: the unavoidable breaks the paper
    #: counts as mispredicted in its instructions-per-break figures.
    unavoidable_breaks: int
    #: Table entries and predictor state bits of a hardware model; ``None``
    #: for static predictors and idealized infinite tables.
    table_size: Optional[int] = None
    budget_bits: Optional[int] = None

    @property
    def correct(self) -> int:
        return self.branch_execs - self.mispredicted

    @property
    def percent_correct(self) -> float:
        """Fraction of branch executions predicted correctly — the
        traditional measure the paper argues is the *wrong* one."""
        if self.branch_execs == 0:
            return 1.0
        return self.correct / self.branch_execs

    @property
    def breaks(self) -> int:
        """Mispredicted branches plus unavoidable breaks."""
        return self.mispredicted + self.unavoidable_breaks

    @property
    def instructions_per_break(self) -> float:
        """The paper's headline measure (Figure 2): instructions passed per
        mispredicted branch or unavoidable break."""
        breaks = self.breaks
        return self.instructions / breaks if breaks else float(self.instructions)


def evaluate_static(run: RunResult, predictor: StaticPredictor) -> PredictionReport:
    """Score a static predictor against one run."""
    mispredicted = 0
    for branch_id, (executed, taken) in run.branch_counts().items():
        if predictor.predict(branch_id):
            mispredicted += executed - taken
        else:
            mispredicted += taken
    return PredictionReport(
        program=run.program,
        predictor=predictor.name,
        instructions=run.instructions,
        branch_execs=run.total_branch_execs,
        mispredicted=mispredicted,
        unavoidable_breaks=run.events.indirect_calls + run.events.indirect_returns,
    )


def self_prediction(run: RunResult) -> PredictionReport:
    """The best possible static prediction: the run predicts itself.

    Every branch is predicted in its own majority direction, so it
    mispredicts ``min(taken, executed - taken)`` times — the upper bound
    the paper's Figure 2 black bars show.
    """
    predictor = ProfilePredictor(BranchProfile.from_run(run), name="self")
    return evaluate_static(run, predictor)
