"""Machine-readable export of every experiment result.

Downstream users (plotting scripts, regression dashboards) get one JSON
document containing all tables, figures and observations, keyed by the
experiment names ``repro-experiments`` takes.
"""
from __future__ import annotations

import dataclasses
import json

from repro.core.runner import WorkloadRunner
from repro.experiments import EXPERIMENTS


def _plain(value):
    """Recursively convert dataclasses/containers to JSON-compatible data."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: _plain(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(key): _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    return value


def collect(runner: WorkloadRunner) -> dict:
    """Run every experiment and return one JSON-compatible document."""
    return {
        name: _plain(module.run(runner)) for name, module in EXPERIMENTS.items()
    }


def export_json(path: str, runner: WorkloadRunner) -> dict:
    """Write the full results document to ``path``; returns it too."""
    document = collect(runner)
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
    return document
