"""Break-in-control accounting and the instructions-per-break measures."""
from repro.metrics.breaks import (
    BreakPolicy,
    unavoidable_breaks,
    unpredicted_breaks,
)
from repro.metrics.ipb import (
    branch_density,
    ipb_no_prediction,
    ipb_self_prediction,
    ipb_with_predictor,
)
from repro.metrics.summary import RunSummary

__all__ = [
    "BreakPolicy",
    "RunSummary",
    "branch_density",
    "ipb_no_prediction",
    "ipb_self_prediction",
    "ipb_with_predictor",
    "unavoidable_breaks",
    "unpredicted_breaks",
]
