"""Combining dataset profiles into summary predictors.

The paper tried three ways of summing the datasets other than the one being
predicted (§3, "Scaled vs. unscaled summary predictors"):

* **unscaled** — simply add the counts;
* **scaled** — divide each dataset's counts by that dataset's total branch
  executions first, giving every dataset equal total weight (this is what
  the reported figures use);
* **polling** — one vote per dataset per branch, regardless of counts
  (discarded by the paper for performing poorly).

Profiles with zero recorded branch executions carry no evidence in any
mode (scaled weighting would even divide by zero), so they are skipped:
they add neither counts nor runs.  In every mode the combined profile's
``runs`` is the total number of underlying runs of the profiles that
actually contributed.

``database_predict`` is the one summary predictor over a
``ProfileDatabase``: the experiments (through ``CrossDatasetExperiment``),
the profile server and the client's offline fallback all call it, so
they combine the same profiles in the same order and get the same floats.
"""
from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from repro.profiling.branch_profile import BranchProfile
from repro.profiling.database import ProfileDatabase

COMBINE_MODES = ("scaled", "unscaled", "polling")


def combine_profiles(
    profiles: Iterable[BranchProfile],
    mode: str = "scaled",
    program: str = "",
) -> BranchProfile:
    """Combine profiles into one summary profile using ``mode``.

    Profiles with zero total branch executions are left out of both the
    counts and the ``runs`` accounting.
    """
    profiles = list(profiles)
    if not profiles:
        raise ValueError("no profiles to combine")
    if mode not in COMBINE_MODES:
        raise ValueError(f"unknown combine mode {mode!r}; use one of {COMBINE_MODES}")
    name = program or profiles[0].program
    totals = [(profile, profile.total_executed) for profile in profiles]
    used = [(profile, total) for profile, total in totals if total]

    combined = BranchProfile(program=name)
    if mode == "unscaled":
        for profile, _ in used:
            combined.add_profile(profile)
    elif mode == "scaled":
        for profile, total in used:
            combined.add_profile(profile, weight=1.0 / total)
    else:
        # polling: each dataset casts one vote per branch it executed, for
        # its majority direction (``BranchProfile.direction``'s rule).
        for profile, _ in used:
            votes = {
                branch_id: (1.0, 1.0 if taken > executed - taken else 0.0)
                for branch_id, (executed, taken) in profile.counts.items()
            }
            combined.add_profile(BranchProfile(program=name, counts=votes))
    combined.runs = sum(profile.runs for profile, _ in used)
    return combined


def database_predict(
    database: ProfileDatabase,
    program: str,
    mode: str = "scaled",
    exclude: Optional[str] = None,
) -> Tuple[BranchProfile, List[str]]:
    """The summary prediction over one database.

    Dataset profiles are combined in sorted dataset-name order (the order
    ``ProfileDatabase.datasets`` already guarantees); ``exclude`` drops
    one dataset first (the paper's Figure 2 predictor: "the sum of all the
    other datasets, weighed by dataset size, to predict the given
    dataset") and ``None`` combines them all.  Returns the combined profile
    and the dataset names that fed it.
    """
    if mode not in COMBINE_MODES:
        raise ValueError(f"unknown combine mode {mode!r}; use one of {COMBINE_MODES}")
    datasets = database.datasets(program)
    if not datasets:
        raise KeyError(f"no profiles recorded for program {program!r}")
    if exclude is not None:
        if exclude not in datasets:
            raise KeyError(
                f"program {program!r} has no dataset {exclude!r} to exclude"
            )
        datasets = [name for name in datasets if name != exclude]
        if not datasets:
            raise ValueError(
                f"excluding {exclude!r} leaves no datasets for {program!r}"
            )
    profiles = [database.dataset_profile(program, name) for name in datasets]
    return combine_profiles(profiles, mode=mode), datasets
