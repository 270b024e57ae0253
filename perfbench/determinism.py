"""Check that the exact per-layer counts repeat across processes.

Usage, from the root of a checkout::

    python3 perfbench/determinism.py [workload ...]

Runs the traced benchmark twice per workload, in separate processes under
``PYTHONHASHSEED`` 1 and 2, and fails unless every count listed in
``layers.EXACT_COUNTS`` is identical.  Those counts may back a claim
("CSE now converges in 2 iterations") only because they repeat exactly.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from layers import EXACT_COUNTS  # noqa: E402
from run import WORKLOADS  # noqa: E402


def traced_counts(workload: str, hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    done = subprocess.run(
        [
            sys.executable, os.path.join(HERE, "run.py"), "--workload",
            workload, "--seed", "1", "--seconds", "1", "--trace", "1",
        ],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: traced run incorrect\n{done.stderr}")
    return {
        name: metric["value"] for name, metric in result["metrics"].items()
        if name in EXACT_COUNTS
    }


def main(workloads) -> int:
    status = 0
    for workload in workloads:
        first, second = (traced_counts(workload, seed) for seed in ("1", "2"))
        differing = sorted(name for name in first if first[name] != second[name])
        if differing:
            status = 1
        print(f"{workload}: " + (
            f"DIFFER {differing}" if differing else
            "identical " + ", ".join(
                f"{name}={first[name]:.0f}" for name in first if first[name]
            )
        ))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or WORKLOADS))
