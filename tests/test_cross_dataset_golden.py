"""Golden text of the cross-dataset tables that go through
``CrossDatasetExperiment.quality`` and its summary predictor.

Perfbench's goldens do not cover coverage, scaling, informal's
combine-modes or compress-cross, so a change to how profiles combine or
how quality is normalised that moved one printed digit would otherwise
pass.  The expected text is ``tests/goldens/cross_dataset_tables.txt``;
after a deliberate change, rewrite it with ``render(WorkloadRunner())``
and review the diff.
"""
import os

from repro.experiments import coverage, informal, scaling

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "goldens", "cross_dataset_tables.txt"
)


def render(runner) -> str:
    tables = [
        coverage.run(runner),
        scaling.run(runner),
        informal.combine_modes(runner),
        informal.compress_cross(runner),
    ]
    return "\n\n".join(table.format_text() for table in tables) + "\n"


def test_cross_dataset_tables_match_golden(runner):
    with open(GOLDEN_PATH) as handle:
        expected = handle.read()
    assert render(runner) == expected
