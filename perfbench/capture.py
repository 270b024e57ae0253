"""Regenerate the goldens (``goldens.json``) and the serve workload's
upload profiles (``profiles.json``) from the current source tree.

Usage, from the root of a checkout::

    python3 perfbench/capture.py

Run it only when a change is meant to alter program outputs, and commit
the new files as a change of their own: a change that claims a speed-up
must leave both files untouched, so the benchmark checks it against the
outputs of its parent.
"""
from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.core.parallel import dataset_requests
    from repro.core.runner import WorkloadRunner
    from repro.profiling.branch_profile import BranchProfile
    from repro.workloads.registry import all_workloads

    from oracle import GOLDENS_PATH, PROFILES_PATH, run_result_digest
    from scenarios import MONITORED_TABLES, SWEEP_TABLES, render

    workloads = all_workloads()
    requests = dataset_requests(workloads)
    work_root = os.path.join(ROOT, ".perfbench-work")
    os.makedirs(work_root, exist_ok=True)
    cache_dir = tempfile.mkdtemp(prefix="capture-", dir=work_root)
    try:
        runner = WorkloadRunner(cache_dir=cache_dir, jobs=1)
        results = runner.run_many(requests)
        tables = {
            name: render(module, runner) for name, module in SWEEP_TABLES
        }
        tables.update(
            (name, render(module, runner, **kwargs))
            for name, module, kwargs in MONITORED_TABLES
        )
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    goldens = {
        "runs": {
            f"{request.workload}/{request.dataset}": run_result_digest(result)
            for request, result in zip(requests, results)
        },
        "tables": tables,
    }
    profiles = {
        "profiles": [
            {
                "program": request.workload,
                "dataset": request.dataset,
                "profile": BranchProfile.from_run(result).to_dict(),
            }
            for request, result in zip(requests, results)
        ]
    }
    for path, payload in ((GOLDENS_PATH, goldens), (PROFILES_PATH, profiles)):
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {os.path.relpath(path, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
