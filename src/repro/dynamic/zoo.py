"""The model zoo: named predictor families at configurable table sizes."""
from __future__ import annotations

from typing import List, Optional, Sequence

from repro.dynamic.base import DynamicPredictor
from repro.dynamic.bimodal import BimodalPredictor
from repro.dynamic.gshare import GSharePredictor
from repro.dynamic.local import TwoLevelLocalPredictor
from repro.dynamic.tournament import TournamentPredictor

#: Family-major zoo order: each family at every size, smallest first.
MODEL_FAMILIES = ("bimodal", "gshare", "local", "tournament")

#: The default sweep sizes (entries; budgets differ per family).
DEFAULT_TABLE_SIZES = (64, 256, 1024)


def build_model(family: str, table_size: Optional[int]) -> DynamicPredictor:
    """Construct one zoo model by family name."""
    if family == "bimodal":
        return BimodalPredictor(table_size=table_size)
    if table_size is None:
        raise ValueError(f"family {family!r} requires a finite table_size")
    if family == "gshare":
        return GSharePredictor(table_size=table_size)
    if family == "local":
        return TwoLevelLocalPredictor(table_size=table_size)
    if family == "tournament":
        return TournamentPredictor(table_size=table_size)
    raise ValueError(
        f"unknown predictor family {family!r}; known: "
        f"{', '.join(MODEL_FAMILIES)}"
    )


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
