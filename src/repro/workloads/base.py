"""Workload definitions: a program (MF source) plus its datasets.

Each workload is an analog of one program from the paper's Table 2 — a real
program written in the MF language, executed by the VM over several input
datasets.  The input to a run is a byte stream (read with ``getc``); dataset
generators are deterministic (seeded), so every number in the experiments is
reproducible.
"""
from __future__ import annotations

import dataclasses
import os
from typing import List

#: Directory holding the .mf program sources.
PROGRAMS_DIR = os.path.join(os.path.dirname(__file__), "programs")

#: Directory holding the checked-in binary dataset inputs.
DATA_DIR = os.path.join(os.path.dirname(__file__), "data")

#: Workload categories, matching the paper's two charts per figure.
FORTRAN = "fortran"  # FORTRAN / floating-point analogs (Figures 1a, 2a, 3a)
C = "c"              # C / integer analogs (Figures 1b, 2b, 3b)


def load_program_source(filename: str) -> str:
    """Read an MF program from the bundled ``programs/`` directory."""
    path = os.path.join(PROGRAMS_DIR, filename)
    with open(path) as handle:
        return handle.read()


def load_data(name: str) -> bytes:
    """Read a binary dataset input from the bundled ``data/`` directory."""
    with open(os.path.join(DATA_DIR, name), "rb") as handle:
        return handle.read()


@dataclasses.dataclass(frozen=True)
class Dataset:
    """One input dataset for a workload."""

    name: str
    description: str
    data: bytes


@dataclasses.dataclass
class Workload:
    """A program and its datasets (one row of the paper's Table 2)."""

    name: str
    category: str
    description: str
    source: str
    datasets: List[Dataset]

    def __post_init__(self) -> None:
        if self.category not in (FORTRAN, C):
            raise ValueError(f"bad category {self.category!r}")
        names = [dataset.name for dataset in self.datasets]
        if len(set(names)) != len(names):
            raise ValueError(f"workload {self.name!r} has duplicate dataset names")
        if not self.datasets:
            raise ValueError(f"workload {self.name!r} has no datasets")

    def dataset_names(self) -> List[str]:
        return [dataset.name for dataset in self.datasets]

    def dataset(self, name: str) -> Dataset:
        for dataset in self.datasets:
            if dataset.name == name:
                return dataset
        raise KeyError(f"workload {self.name!r} has no dataset {name!r}")


def encode_ints(*values: int) -> bytes:
    """Encode integers as ASCII decimal lines (the common input format)."""
    return "".join(f"{value}\n" for value in values).encode()
