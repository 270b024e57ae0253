"""Online scoring of dynamic predictors, with the paper's metrics.

``DynamicScoreMonitor`` attaches to a VM run (the ``BranchMonitor``
hook) and scores any number of models against the same outcome stream in
one pass — one simulation per (workload, dataset), however many
predictors are competing.  The VM hands it the stream in bounded chunks,
and every model replays each chunk's outcomes in its own tight loop.
From the tallies plus the run's counters it emits the same
:class:`~repro.prediction.evaluate.PredictionReport` that
``evaluate_static`` gives a static predictor, carrying both the
traditional percent-correct *and* the measure the paper argues actually
matters: instructions per break, where breaks are mispredicted branches
plus the run's unavoidable breaks (indirect calls and their returns).
"""
from __future__ import annotations

from typing import List, Sequence

from repro.dynamic.base import DynamicPredictor
from repro.ir.instructions import BranchId
from repro.metrics.breaks import unavoidable_breaks
from repro.prediction.evaluate import PredictionReport
from repro.vm.counters import RunResult
from repro.vm.monitors import BranchMonitor


class DynamicScoreMonitor(BranchMonitor):
    """Scores a set of dynamic predictors against one live run.

    The monitor needs the program's static branch table up front (from
    ``CompiledProgram.lowered.branch_table``) because finite models hash
    :class:`BranchId` identities into their tables at reset; the VM's
    ``on_run_start`` only passes a count, which is checked against it.
    """

    def __init__(
        self,
        models: Sequence[DynamicPredictor],
        branch_table: Sequence[BranchId],
    ) -> None:
        self.models = list(models)
        self.branch_table = list(branch_table)
        self.hits = [0] * len(self.models)
        self.mispredicts = [0] * len(self.models)

    def on_run_start(self, num_branches: int) -> None:
        if num_branches != len(self.branch_table):
            raise ValueError(
                f"program has {num_branches} branches but the monitor was "
                f"built for {len(self.branch_table)}"
            )
        for model in self.models:
            model.reset(self.branch_table)
        self.hits = [0] * len(self.models)
        self.mispredicts = [0] * len(self.models)

    def replay(self, chunk: List[int]) -> None:
        outcomes = chunk[0::2]
        hits = self.hits
        mispredicts = self.mispredicts
        for slot, model in enumerate(self.models):
            missed = model.replay(outcomes)
            hits[slot] += len(outcomes) - missed
            mispredicts[slot] += missed

    # -- results -------------------------------------------------------------

    def score(self, model_index: int, run: RunResult) -> PredictionReport:
        """The score of one model against the observed run."""
        model = self.models[model_index]
        return PredictionReport(
            program=run.program,
            predictor=model.name,
            instructions=run.instructions,
            branch_execs=self.hits[model_index] + self.mispredicts[model_index],
            mispredicted=self.mispredicts[model_index],
            unavoidable_breaks=unavoidable_breaks(run),
            table_size=model.table_size,
            budget_bits=model.budget_bits(),
        )

    def scores(self, run: RunResult) -> List[PredictionReport]:
        """One report per model, in model order."""
        return [self.score(index, run) for index in range(len(self.models))]
