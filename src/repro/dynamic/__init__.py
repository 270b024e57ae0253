"""Dynamic branch-predictor simulation.

Finite-capacity, aliasing-aware hardware predictor models ([Smith 81],
[Lee and Smith 84], McFarling), each a branch monitor that scores
itself online against the live VM run it observes — the
"other side" of the paper's static-vs-dynamic comparison.  See
docs/PREDICTORS.md.
"""
from repro.dynamic.base import (
    DynamicPredictor,
    branch_pc,
    check_table_size,
    monitors_for,
)
from repro.dynamic.bimodal import BimodalPredictor
from repro.dynamic.gshare import GSharePredictor
from repro.dynamic.local import TwoLevelLocalPredictor
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
    "GSharePredictor",
    "MODEL_FAMILIES",
    "TournamentPredictor",
    "TwoLevelLocalPredictor",
    "branch_pc",
    "build_model",
    "check_table_size",
    "default_zoo",
    "monitors_for",
]
