"""Reproductions of every table and figure in the paper's evaluation,
plus the informal observations and the extension experiments.

``EXPERIMENTS`` is their one registry: experiment name -> module, in the
order ``repro-experiments all`` runs them.  Each module declares every
run it reads with ``requests()``, and its ``run(runner)`` reads them from
one ``runner.run_many(requests())`` call and returns a result whose
``format_text()`` is its report.  Both take the same keyword arguments.
:func:`run_experiments` is the sweep the command line, ``export`` and
the output golden share: the union of the chosen experiments' requests
in one ``run_many``, then each result built from the runner's memo.
"""
from typing import Any, Iterable, Iterator, List, Tuple

from repro.core.parallel import RunRequest
from repro.core.runner import WorkloadRunner
from repro.experiments import (
    ablations,
    coverage,
    dynamic_compare,
    figure1,
    figure2,
    figure3,
    informal,
    overview,
    proofs,
    runlengths,
    scaling,
    table1,
    table2,
    table3,
)

EXPERIMENTS = {
    "coverage": coverage,
    "dynamic": dynamic_compare,
    "figure1": figure1,
    "figure2": figure2,
    "figure3": figure3,
    "overview": overview,
    "proofs": proofs,
    "runlengths": runlengths,
    "scaling": scaling,
    "table1": table1,
    "table2": table2,
    "table3": table3,
    "informal": informal,
    "ablations": ablations,
}


def plan(names: Iterable[str]) -> List[RunRequest]:
    """Every run the named experiments read, each once, in first-use
    order."""
    return list(
        dict.fromkeys(
            request for name in names for request in EXPERIMENTS[name].requests()
        )
    )


def run_experiments(
    runner: WorkloadRunner, names: Iterable[str] = tuple(EXPERIMENTS)
) -> Iterator[Tuple[str, Any]]:
    """Run the plan of ``names`` in one ``run_many`` now, then yield each
    experiment's ``(name, result)`` as it is built from the memo."""
    names = list(names)
    runner.run_many(plan(names))
    return ((name, EXPERIMENTS[name].run(runner)) for name in names)
