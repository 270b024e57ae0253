"""Instructions per break in control — the paper's central measure."""
from __future__ import annotations

from repro.metrics.breaks import BreakPolicy, unpredicted_breaks
from repro.prediction.base import StaticPredictor
from repro.prediction.evaluate import evaluate_static, self_prediction
from repro.vm.counters import RunResult


def ipb_no_prediction(
    run: RunResult, include_direct_calls: bool = False
) -> float:
    """Instructions per break with no prediction (Figure 1).

    Black bars: ``include_direct_calls=False``; white bars: ``True``.
    """
    policy = BreakPolicy(include_direct_calls=include_direct_calls)
    breaks = unpredicted_breaks(run, policy)
    return run.instructions / breaks if breaks else float(run.instructions)


def ipb_with_predictor(run: RunResult, predictor: StaticPredictor) -> float:
    """Instructions per break when branches are predicted (Figure 2)."""
    return evaluate_static(run, predictor).instructions_per_break


def ipb_self_prediction(run: RunResult) -> float:
    """The best-possible instructions per break: the run predicts itself
    (Figure 2 black bars, Table 3)."""
    return self_prediction(run).instructions_per_break


def branch_density(run: RunResult) -> float:
    """Instructions per executed conditional branch (the paper's li ~10 vs
    fpppp ~170 observation)."""
    branches = run.total_branch_execs
    return run.instructions / branches if branches else float(run.instructions)
