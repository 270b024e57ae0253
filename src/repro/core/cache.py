"""Run-result serialization and the on-disk run cache.

Simulating every (program, dataset) takes seconds; every table and figure is
arithmetic over the same runs.  The cache keys on a digest of the program
source, the input bytes and the compile configuration, so it can never serve
stale results after a workload or compiler change.
"""
from __future__ import annotations

import hashlib
import json
import os
from typing import Optional

from repro.ir.instructions import BranchId
from repro.profiling.database import write_json_atomic
from repro.vm.counters import ControlEvents, RunResult

#: Bump when the RunResult layout, counting semantics, or digest scheme
#: change.  v4: length-prefixed digest fields (the v3 ``|``-joined form was
#: not injective across field boundaries).
CACHE_FORMAT_VERSION = 4


def run_result_to_dict(result: RunResult) -> dict:
    """JSON-serializable form of a RunResult."""
    return {
        "program": result.program,
        "instructions": result.instructions,
        "branch_table": [
            [bid.function, bid.index] for bid in result.branch_table
        ],
        "branch_exec": result.branch_exec,
        "branch_taken": result.branch_taken,
        "events": result.events.as_dict(),
        "output_hex": result.output.hex(),
        "exit_code": result.exit_code,
    }


def run_result_from_dict(data: dict) -> RunResult:
    return RunResult(
        program=data["program"],
        instructions=data["instructions"],
        branch_table=[
            BranchId(function, index) for function, index in data["branch_table"]
        ],
        branch_exec=list(data["branch_exec"]),
        branch_taken=list(data["branch_taken"]),
        events=ControlEvents(**data["events"]),
        output=bytes.fromhex(data["output_hex"]),
        exit_code=data["exit_code"],
    )


def run_digest(source: str, input_data: bytes, config: str) -> str:
    """Digest identifying one run for caching purposes.

    Every field is length-prefixed before hashing so the encoding is
    injective: joining with a separator alone would let content containing
    the separator shift across field boundaries — e.g.
    ``(source="x|y", input=b"z")`` vs ``(source="x", input=b"y|z")`` —
    and serve the wrong cached run.
    """
    hasher = hashlib.sha256()
    hasher.update(f"v{CACHE_FORMAT_VERSION}".encode())
    for field in (config.encode(), source.encode(), input_data):
        hasher.update(b"%d:" % len(field))
        hasher.update(field)
    return hasher.hexdigest()[:32]


class DiskCache:
    """A trivial one-file-per-entry JSON cache."""

    def __init__(self, directory: Optional[str]):
        self.directory = directory
        if directory:
            os.makedirs(directory, exist_ok=True)

    def _path(self, digest: str) -> str:
        return os.path.join(self.directory, f"{digest}.json")

    def load(self, digest: str) -> Optional[RunResult]:
        if not self.directory:
            return None
        path = self._path(digest)
        if not os.path.exists(path):
            return None
        try:
            with open(path) as handle:
                return run_result_from_dict(json.load(handle))
        except (ValueError, KeyError, TypeError):
            return None  # corrupt entry: recompute

    def store(self, digest: str, result: RunResult) -> None:
        if not self.directory:
            return
        write_json_atomic(self._path(digest), run_result_to_dict(result))
