"""The workload registry: every program of the paper's Table 2 by name."""
from __future__ import annotations

from typing import Callable, Dict, List

from repro.workloads.base import Workload

#: Factories in the paper's Table 2 order (FORTRAN/FP first, then C/integer).
_FACTORY_NAMES: List[str] = [
    "spice2g6",
    "doduc",
    "nasa7",
    "matrix300",
    "fpppp",
    "tomcatv",
    "lfk",
    "gcc",
    "espresso",
    "li",
    "eqntott",
    "compress",
    "uncompress",
    "mfcom",
    "spiff",
]


def _factories() -> Dict[str, Callable[[], Workload]]:
    # Imported lazily, so importing the registry loads no workload module.
    from repro.workloads import circuits, compression, spec_fp, spec_int

    return {
        "spice2g6": circuits.build_spice,
        "doduc": spec_fp.build_doduc,
        "nasa7": spec_fp.build_nasa7,
        "matrix300": spec_fp.build_matrix300,
        "fpppp": spec_fp.build_fpppp,
        "tomcatv": spec_fp.build_tomcatv,
        "lfk": spec_fp.build_lfk,
        "gcc": spec_int.build_gcc,
        "espresso": spec_int.build_espresso,
        "li": spec_int.build_li,
        "eqntott": spec_int.build_eqntott,
        "compress": compression.build_compress,
        "uncompress": compression.build_uncompress,
        "mfcom": spec_int.build_mfcom,
        "spiff": spec_int.build_spiff,
    }


_CACHE: Dict[str, Workload] = {}


def workload_names() -> List[str]:
    """All workload names, in the paper's Table 2 order."""
    return list(_FACTORY_NAMES)


def get_workload(name: str) -> Workload:
    """Build (and cache) one workload by name."""
    if name not in _CACHE:
        factories = _factories()
        if name not in factories:
            raise KeyError(
                f"unknown workload {name!r}; known: {', '.join(_FACTORY_NAMES)}"
            )
        _CACHE[name] = factories[name]()
    return _CACHE[name]


def all_workloads() -> List[Workload]:
    """Every workload, built."""
    return [get_workload(name) for name in workload_names()]


def multi_dataset_workloads() -> List[Workload]:
    """Workloads with 2+ datasets (the cross-prediction experiments)."""
    return [wl for wl in all_workloads() if len(wl.datasets) >= 2]
