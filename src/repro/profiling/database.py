"""The accumulating profile database (the IFPROBBER's back end).

"Upon the completion of each run, the generated code collected the value of
each counter and added that value to the amount that had been accumulated in
a database for that counter during previous runs."

We keep two granularities: an accumulated per-program profile (the paper's
database) and individual per-(program, dataset) profiles, which the
experiments and the profile server need in order to form leave-one-out
and single-dataset predictors.
"""
from __future__ import annotations

import json
import os
import tempfile
from typing import Dict, List, Tuple

from repro.profiling.branch_profile import BranchProfile
from repro.vm.counters import RunResult


def write_json_atomic(path: str, data, **dump_options) -> None:
    """Write ``data`` as JSON to ``path`` through a temp file and a rename.

    Each writer gets its own mkstemp temp file in the target directory
    (same filesystem, so ``os.replace`` stays atomic).  A shared
    ``<path>.tmp`` would let two concurrent writers interleave writes and
    race the final rename, leaving a corrupt or vanished file; here every
    observable state of ``path`` is a complete file from one writer.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(data, handle, **dump_options)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


class ProfileDatabase:
    """Branch-count storage accumulated across runs, with JSON persistence."""

    def __init__(self) -> None:
        # (program, dataset) -> profile accumulated over that dataset's runs.
        self._by_dataset: Dict[Tuple[str, str], BranchProfile] = {}

    # -- recording -----------------------------------------------------------

    def record(self, run: RunResult, dataset: str) -> None:
        """Add one run's counters to the database."""
        self.record_profile(run.program, dataset, BranchProfile.from_run(run))

    def record_profile(
        self, program: str, dataset: str, profile: BranchProfile
    ) -> None:
        """Accumulate one profile into ``(program, dataset)``.

        Every recording goes through here: ``record`` with a run's own
        profile, and the profile-feedback service's uploads, which ship a
        run's branch counters as a ``BranchProfile`` rather than the whole
        ``RunResult``.
        """
        if profile.program != program:
            raise ValueError(
                f"profile is for {profile.program!r}, expected {program!r}"
            )
        key = (program, dataset)
        existing = self._by_dataset.get(key)
        if existing is None:
            existing = BranchProfile(program=program)
            self._by_dataset[key] = existing
        existing.add_profile(profile)

    # -- queries ---------------------------------------------------------------

    def programs(self) -> List[str]:
        """Programs with at least one recorded run."""
        return sorted({program for program, _ in self._by_dataset})

    def datasets(self, program: str) -> List[str]:
        """Datasets recorded for a program, in sorted order."""
        return sorted(
            dataset for prog, dataset in self._by_dataset if prog == program
        )

    def dataset_profile(self, program: str, dataset: str) -> BranchProfile:
        """The accumulated profile of one (program, dataset)."""
        try:
            return self._by_dataset[(program, dataset)]
        except KeyError:
            raise KeyError(f"no profile recorded for {program!r}/{dataset!r}")

    def program_profile(self, program: str) -> BranchProfile:
        """Unscaled sum of a program's dataset profiles (the paper's
        accumulated database counts).  Summary predictors over some or
        all datasets are :func:`repro.prediction.combine.database_predict`.
        """
        merged = BranchProfile(program=program)
        for (prog, _), profile in sorted(self._by_dataset.items()):
            if prog == program:
                merged.add_profile(profile)
        return merged

    # -- persistence -------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "entries": [
                {
                    "program": program,
                    "dataset": dataset,
                    "profile": profile.to_dict(),
                }
                for (program, dataset), profile in sorted(self._by_dataset.items())
            ]
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ProfileDatabase":
        database = cls()
        for entry in data["entries"]:
            key = (entry["program"], entry["dataset"])
            database._by_dataset[key] = BranchProfile.from_dict(entry["profile"])
        return database

    def save(self, path: str) -> None:
        """Write the database as JSON (atomically)."""
        write_json_atomic(path, self.to_dict(), indent=1, sort_keys=True)

    @classmethod
    def load(cls, path: str) -> "ProfileDatabase":
        with open(path) as handle:
            return cls.from_dict(json.load(handle))
