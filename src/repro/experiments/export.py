"""Machine-readable export of every experiment result.

Downstream users (plotting scripts, regression dashboards) get one JSON
document containing all tables, figures and observations, keyed by the
experiment names ``repro-experiments`` takes.
"""
from __future__ import annotations

import dataclasses
import json
from typing import Any, Dict

from repro.core.runner import WorkloadRunner
from repro.experiments import run_experiments


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


def document_of(results: Dict[str, Any]) -> dict:
    """The JSON-compatible document of experiment results, keyed by name."""
    return {name: _plain(result) for name, result in results.items()}


def collect(runner: WorkloadRunner) -> dict:
    """Run every experiment and return one JSON-compatible document."""
    return document_of(dict(run_experiments(runner)))


def dumps(document: dict) -> str:
    """The text :func:`export_json` writes for ``document``."""
    return json.dumps(document, indent=1, sort_keys=True)


def export_json(path: str, runner: WorkloadRunner) -> dict:
    """Write the full results document to ``path``; returns it too."""
    document = collect(runner)
    with open(path, "w") as handle:
        handle.write(dumps(document))
    return document
