"""Reproductions of every table and figure in the paper's evaluation,
plus the informal observations and the extension experiments.

``EXPERIMENTS`` is their one registry: experiment name -> module, in the
order ``repro-experiments all`` runs them.  Each module's
``run(runner)`` returns a result whose ``format_text()`` is its report;
the command line and ``export`` both iterate this table.
"""
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
