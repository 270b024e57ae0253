"""Static and dynamic branch prediction."""
from repro.prediction.base import FixedPredictor, ProfilePredictor, StaticPredictor
from repro.prediction.combine import COMBINE_MODES, combine_profiles
from repro.prediction.evaluate import (
    PredictionReport,
    evaluate_static,
    self_prediction,
)
from repro.prediction.heuristics import (
    LoopHeuristicPredictor,
    OpcodeHeuristicPredictor,
)
from repro.prediction.proofs import StaticProofPredictor

__all__ = [
    "COMBINE_MODES",
    "FixedPredictor",
    "LoopHeuristicPredictor",
    "OpcodeHeuristicPredictor",
    "PredictionReport",
    "ProfilePredictor",
    "StaticPredictor",
    "StaticProofPredictor",
    "combine_profiles",
    "evaluate_static",
    "self_prediction",
]
