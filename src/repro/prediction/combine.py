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
"""
from __future__ import annotations

from typing import Iterable, List

from repro.profiling.branch_profile import BranchProfile

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
    used = [profile for profile in profiles if profile.total_executed]

    combined = BranchProfile(program=name)
    if mode == "unscaled":
        for profile in used:
            combined.add_profile(profile)
    elif mode == "scaled":
        for profile in used:
            combined.add_profile(profile, weight=1.0 / profile.total_executed)
    else:
        # polling: each dataset casts one vote per branch it executed.
        for profile in used:
            votes = BranchProfile(program=name)
            for branch_id in profile:
                votes.counts[branch_id] = (
                    1.0,
                    1.0 if profile.direction(branch_id) else 0.0,
                )
            combined.add_profile(votes)
    combined.runs = sum(profile.runs for profile in used)
    return combined


def leave_one_out(
    profiles: List[BranchProfile],
    exclude_index: int,
    mode: str = "scaled",
) -> BranchProfile:
    """Combine every profile except ``profiles[exclude_index]``.

    This is the paper's Figure 2 white-bar predictor: "the sum of all the
    other datasets, weighed by dataset size, to predict the given dataset".
    """
    rest = [
        profile
        for index, profile in enumerate(profiles)
        if index != exclude_index
    ]
    if not rest:
        raise ValueError("leave-one-out needs at least two profiles")
    return combine_profiles(rest, mode=mode)
