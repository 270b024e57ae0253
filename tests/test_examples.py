"""Smoke tests: every example script must run and produce its story."""
import os
import subprocess
import sys

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "examples")

CASES = [
    ("quickstart.py", ["training run:", "instructions per break"]),
    ("profile_feedback_loop.py", ["IFPROB", "best possible"]),
    ("cross_dataset_prediction.py", ["leave-one-out", "self"]),
    ("heuristics_vs_profile.py", ["loop-heuristic", "dynamic 1-bit"]),
]


@pytest.mark.parametrize("script,expected", CASES, ids=[c[0] for c in CASES])
def test_example_runs(script, expected, runner):
    # The session runner has warmed the shared disk cache, which the
    # example subprocesses reuse.
    result = subprocess.run(
        [sys.executable, os.path.join(EXAMPLES_DIR, script)],
        capture_output=True,
        text=True,
        timeout=600,
        cwd=os.path.join(EXAMPLES_DIR, ".."),
    )
    assert result.returncode == 0, result.stderr
    for fragment in expected:
        assert fragment in result.stdout, (script, fragment, result.stdout)
