"""The model zoo: named predictor families at configurable table sizes."""
from __future__ import annotations

from typing import Dict, List, Sequence, Type

from repro.dynamic.base import DynamicPredictor
from repro.dynamic.bimodal import BimodalPredictor
from repro.dynamic.gshare import GSharePredictor
from repro.dynamic.local import TwoLevelLocalPredictor
from repro.dynamic.tournament import TournamentPredictor

#: Each family's model class, by family name, in family-major zoo order.
FAMILY_MODELS: Dict[str, Type[DynamicPredictor]] = {
    "bimodal": BimodalPredictor,
    "gshare": GSharePredictor,
    "local": TwoLevelLocalPredictor,
    "tournament": TournamentPredictor,
}

#: Family-major zoo order: each family at every size, smallest first.
MODEL_FAMILIES = tuple(FAMILY_MODELS)

#: The default sweep sizes (entries; budgets differ per family).
DEFAULT_TABLE_SIZES = (64, 256, 1024)


def default_zoo(
    table_sizes: Sequence[int] = DEFAULT_TABLE_SIZES,
) -> List[DynamicPredictor]:
    """Every family at every table size, family-major.

    Each size's bimodal and gshare models are its tournament's
    components, so the 12 default models take 6 passes: attach
    ``monitors_for(models)`` to the run, then score every model.
    """
    sizes = sorted(table_sizes)
    tournaments = [TournamentPredictor(table_size=size) for size in sizes]
    return [
        *(tournament.bimodal for tournament in tournaments),
        *(tournament.gshare for tournament in tournaments),
        *(TwoLevelLocalPredictor(table_size=size) for size in sizes),
        *tournaments,
    ]
