"""Dynamic branch-predictor simulation.

Finite-capacity, aliasing-aware hardware predictor models ([Smith 81],
[Lee and Smith 84], McFarling) scored online against live VM runs — the
"other side" of the paper's static-vs-dynamic comparison.  See
docs/PREDICTORS.md.
"""
from repro.dynamic.base import DynamicPredictor, branch_pc, check_table_size
from repro.dynamic.bimodal import BimodalPredictor
from repro.dynamic.gshare import GSharePredictor
from repro.dynamic.local import TwoLevelLocalPredictor
from repro.dynamic.score import DynamicScoreMonitor
from repro.dynamic.tournament import TournamentPredictor
from repro.dynamic.zoo import (
    DEFAULT_TABLE_SIZES,
    MODEL_FAMILIES,
    build_model,
    default_zoo,
)

__all__ = [
    "BimodalPredictor",
    "DEFAULT_TABLE_SIZES",
    "DynamicPredictor",
    "DynamicScoreMonitor",
    "GSharePredictor",
    "MODEL_FAMILIES",
    "TournamentPredictor",
    "TwoLevelLocalPredictor",
    "branch_pc",
    "build_model",
    "check_table_size",
    "default_zoo",
]
