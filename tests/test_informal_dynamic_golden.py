"""Golden text of informal's dynamic 1-bit / 2-bit comparison.

It is the one monitored table that perfbench's goldens (``dynamic/*``
and ``runlengths/*``) do not pin, so a change to how dynamic models bind
to a run, count their executions or score themselves that moved one
printed digit would otherwise pass.  The expected text is
``tests/goldens/informal_dynamic.txt``; after a deliberate change,
rewrite it with ``render(WorkloadRunner())`` and review the diff.
"""
import os

from repro.experiments import informal

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "goldens", "informal_dynamic.txt"
)


def render(runner) -> str:
    result = informal.dynamic_comparison(
        runner, programs=informal.DYNAMIC_PROGRAMS
    )
    return result.format_text() + "\n"


def test_informal_dynamic_comparison_matches_golden(runner):
    with open(GOLDEN_PATH) as handle:
        expected = handle.read()
    assert render(runner) == expected
