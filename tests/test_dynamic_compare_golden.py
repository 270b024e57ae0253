"""Golden text of the full ``dynamic`` experiment: table and chart.

Every number of the static-vs-hardware comparison over the default
programs, so a change to how the zoo's models are built, attached,
advanced or scored that moved one printed digit fails here, not only in
the end-to-end benchmark's goldens.  The expected text is
``tests/goldens/dynamic_compare.txt``; after a deliberate change, rewrite
it with ``render(WorkloadRunner())`` and review the diff.
"""
import os

from repro.experiments import dynamic_compare

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "goldens", "dynamic_compare.txt"
)


def render(runner) -> str:
    result = dynamic_compare.run(runner)
    return result.format_text() + "\n" + result.format_chart() + "\n"


def test_dynamic_compare_matches_golden(runner):
    with open(GOLDEN_PATH) as handle:
        expected = handle.read()
    assert render(runner) == expected
