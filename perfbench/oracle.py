"""The golden oracle behind ``failed``/``attempted``.

Goldens (``goldens.json``) hold, for the commit they were captured at:

* a digest of every paper-configuration ``RunResult`` — output, exit
  code, instruction count and per-branch exec/taken counts;
* the exact text of every rendered experiment the benchmark runs.

``profiles.json`` holds the 51 real branch profiles the serve workload
uploads.  Both files are written by ``capture.py``; regenerating them is
a change of its own, never part of a change that claims a gain.
"""
from __future__ import annotations

import difflib
import hashlib
import json
import os
import sys
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDENS_PATH = os.path.join(HERE, "goldens.json")
PROFILES_PATH = os.path.join(HERE, "profiles.json")


def _sha256_json(payload: Any) -> str:
    encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode()).hexdigest()


def run_result_digest(result) -> str:
    return _sha256_json({
        "output": result.output.hex(),
        "exit_code": result.exit_code,
        "instructions": result.instructions,
        "branch_exec": list(result.branch_exec),
        "branch_taken": list(result.branch_taken),
    })


def load_json(path: str) -> Dict[str, Any]:
    with open(path) as handle:
        return json.load(handle)


class Oracle:
    """Counts attempted and failed operations against the goldens.

    An operation is one run, one rendered table or one request.  Broken invariants that are not operations (a cache that
    was written when it should only be read, a layer that saw no calls)
    are ``problems``: they make the run incorrect without counting as ops.
    """

    def __init__(self, goldens: Dict[str, Any]):
        self.goldens = goldens
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def _report(self, message: str) -> None:
        print(f"perfbench: {message}", file=sys.stderr)

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self._report(f"FAILED {what}")

    def problem(self, message: str) -> None:
        self.problems.append(message)
        self._report(f"PROBLEM {message}")

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems

    # -- golden comparisons ------------------------------------------------

    def check_run(self, key: str, result) -> None:
        if isinstance(result, Exception) or not hasattr(result, "output"):
            self.op(False, f"run {key}: {result}")
            return
        expected = self.goldens["runs"].get(key)
        self.op(
            expected is not None and run_result_digest(result) == expected,
            f"run {key}: RunResult digest differs from the golden",
        )

    def check_table(self, name: str, text) -> None:
        expected = self.goldens["tables"].get(name)
        if isinstance(text, Exception) or expected is None:
            self.op(False, f"table {name}: {text!r:.200}")
            return
        if text != expected:
            diff = difflib.unified_diff(
                expected.splitlines(), text.splitlines(), "golden", "now",
                lineterm="", n=1,
            )
            self._report("\n".join(list(diff)[:40]))
        self.op(text == expected, f"table {name}: text differs from the golden")
