"""Monitor specs: the monitors of a monitored run, written as data.

A monitored :class:`~repro.core.parallel.RunRequest` names the monitors
to attach to its run as a tuple of specs.  A spec is a string, so it is
frozen, hashable and pickles, and a monitored request is a memo key like
any other.  The grammar is documented in docs/PREDICTORS.md ("Monitor
specs"): ``<family>@<size>`` for a zoo model, ``1bit@inf`` and
``2bit@inf`` for the unaliased counters, and ``runlengths(self)``.
``standalone_model`` builds the model a spec names on its own.

A request's specs are built into monitors together, so each size's
bimodal and gshare ride their tournament's pass (see ``monitors_for``).
After the run each spec has a plain-data summary: the model's
:class:`~repro.prediction.evaluate.PredictionReport`, or the run-length
``stats()``.
"""
from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.dynamic.base import DynamicPredictor, check_table_size, monitors_for
from repro.dynamic.bimodal import BimodalPredictor
from repro.dynamic.zoo import FAMILY_MODELS, default_zoo
from repro.prediction.base import ProfilePredictor
from repro.prediction.evaluate import PredictionReport
from repro.profiling.branch_profile import BranchProfile
from repro.vm.counters import RunResult
from repro.vm.monitors import BranchMonitor, RunLengthMonitor

#: One spec's summary of the run it observed.
Summary = Union[PredictionReport, Dict[str, float]]

#: The run lengths between the mispredicts of self-prediction.
RUN_LENGTHS = "runlengths(self)"

#: The unaliased counters' specs, by counter width in bits.
UNALIASED_COUNTERS = {"1bit@inf": 1, "2bit@inf": 2}


def _zoo_size(spec: str) -> Optional[int]:
    """The table size a zoo model's spec names, else ``None``."""
    family, _, size = spec.partition("@")
    if family not in FAMILY_MODELS or not size.isdigit():
        return None
    try:
        return check_table_size(int(size))
    except ValueError:
        return None


def standalone_model(spec: str) -> DynamicPredictor:
    """The model a zoo or unaliased-counter spec names, built on its own,
    so it is its own monitor; raises ``ValueError`` for any other spec."""
    if spec in UNALIASED_COUNTERS:
        return BimodalPredictor(table_size=None, num_bits=UNALIASED_COUNTERS[spec])
    size = _zoo_size(spec)
    if size is None:
        raise ValueError(f"unknown model spec {spec!r}")
    return FAMILY_MODELS[spec.partition("@")[0]](table_size=size)


def check(specs: Sequence[str]) -> None:
    """Raise ``ValueError`` naming the first of ``specs`` that is not a
    spec."""
    for spec in specs:
        if (
            spec != RUN_LENGTHS
            and spec not in UNALIASED_COUNTERS
            and _zoo_size(spec) is None
        ):
            raise ValueError(f"unknown monitor spec {spec!r}")


def attach(
    specs: Sequence[str], plain: RunResult
) -> Tuple[List[BranchMonitor], Callable[[RunResult], Tuple[Summary, ...]]]:
    """The monitors to attach to a run for ``specs``, and the function
    that summarizes them, one summary per spec, from the run's result.
    ``plain`` is the unmonitored run of the same triple."""
    check(specs)
    sizes = {size for size in map(_zoo_size, specs) if size is not None}
    zoo = {
        model.name: model
        for size in sorted(sizes)
        for model in default_zoo((size,))
    }
    observers: List[Union[DynamicPredictor, RunLengthMonitor]] = []
    for spec in specs:
        if spec == RUN_LENGTHS:
            profile = BranchProfile.from_run(plain)
            observers.append(
                RunLengthMonitor(ProfilePredictor(profile, name="self"))
            )
        elif spec in UNALIASED_COUNTERS:
            observers.append(standalone_model(spec))
        else:
            observers.append(zoo[spec])
    models = [obs for obs in observers if isinstance(obs, DynamicPredictor)]
    monitors: List[BranchMonitor] = list(monitors_for(models))
    monitors += [obs for obs in observers if isinstance(obs, RunLengthMonitor)]

    def summarize(result: RunResult) -> Tuple[Summary, ...]:
        return tuple(
            obs.score(result) if isinstance(obs, DynamicPredictor) else obs.stats()
            for obs in observers
        )

    return monitors, summarize
