"""Run-result serialization and the on-disk run cache.

Simulating every (program, dataset) takes seconds; every table and figure is
arithmetic over the same runs.  The cache keys on a digest of the program
source, the input bytes, the compile configuration and ``code_fingerprint()``
— a hash of the source files of the front end, the IR, the optimizer, the
analyses and the VM — so it can never serve stale results after a workload,
compiler or VM change.  A change anywhere else (the predictors, the
experiments) does not touch a run's counters and keeps the cache warm.

One cache directory serves one code version.  A digest starts with
``version_prefix()``, 8 hex digits of a hash over the cache format version
and the fingerprint, so opening a ``DiskCache`` deletes the entries that an
earlier version of the compiler, the VM or the cache format wrote: nothing
could read them again, and a directory would otherwise grow by a full sweep
per compiler edit.  Files not named like an entry are left alone.
"""
from __future__ import annotations

import hashlib
import json
import os
import pathlib
import re
from functools import lru_cache
from typing import List, Optional

from repro.ir.instructions import BranchId
from repro.profiling.database import write_json_atomic
from repro.vm.counters import ControlEvents, RunResult

#: Bump when the RunResult layout, counting semantics, or digest scheme
#: change.  v4: length-prefixed digest fields (the v3 ``|``-joined form was
#: not injective across field boundaries).  v5: the code fingerprint.
#: v6: the digest starts with the fingerprint's first 8 hex digits.
#: v7: the digest starts with ``version_prefix()``, which covers this too.
CACHE_FORMAT_VERSION = 7

#: How many hex digits of ``version_prefix()`` lead every run digest.
PREFIX_DIGITS = 8

#: The file name of a cache entry: a 32-hex-digit run digest plus ``.json``.
_ENTRY_NAME = re.compile(r"[0-9a-f]{32}\.json")

#: The ``repro`` package directory.
_PACKAGE_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: What a run's counters depend on besides its source, input and config:
#: ``compiler.py`` and every module of these packages.
_FINGERPRINTED_PACKAGES = ("lang", "ir", "opt", "analysis", "vm")


def fingerprinted_files() -> List[str]:
    """The source files ``code_fingerprint`` hashes, relative to the
    ``repro`` package, in sorted order."""
    root = pathlib.Path(_PACKAGE_DIR)
    paths = [root / "compiler.py"] + [
        path
        for package in _FINGERPRINTED_PACKAGES
        for path in (root / package).rglob("*.py")
    ]
    return sorted(path.relative_to(root).as_posix() for path in paths)


@lru_cache(maxsize=None)
def code_fingerprint() -> str:
    """A sha256 over the path and bytes of each ``fingerprinted_files()``
    entry, read once per process."""
    hasher = hashlib.sha256()
    for path in fingerprinted_files():
        with open(os.path.join(_PACKAGE_DIR, path), "rb") as handle:
            data = handle.read()
        for field in (path.encode(), data):
            hasher.update(b"%d:" % len(field))
            hasher.update(field)
    return hasher.hexdigest()


def version_prefix() -> str:
    """The first ``PREFIX_DIGITS`` hex digits of a sha256 over
    ``CACHE_FORMAT_VERSION`` and ``code_fingerprint()``: what every run
    digest of this code version and cache format starts with."""
    key = f"v{CACHE_FORMAT_VERSION}:{code_fingerprint()}"
    return hashlib.sha256(key.encode()).hexdigest()[:PREFIX_DIGITS]


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
    """Digest identifying one run for caching purposes: the format
    version, ``code_fingerprint()``, the config tag, the source and the
    input.  It starts with ``version_prefix()``, which is how
    ``DiskCache`` tells the entries of another code version or cache
    format apart.

    Every field is length-prefixed before hashing so the encoding is
    injective: joining with a separator alone would let content containing
    the separator shift across field boundaries — e.g.
    ``(source="x|y", input=b"z")`` vs ``(source="x", input=b"y|z")`` —
    and serve the wrong cached run.
    """
    hasher = hashlib.sha256()
    hasher.update(f"v{CACHE_FORMAT_VERSION}".encode())
    fields = (code_fingerprint().encode(), config.encode(), source.encode())
    for field in fields + (input_data,):
        hasher.update(b"%d:" % len(field))
        hasher.update(field)
    return version_prefix() + hasher.hexdigest()[: 32 - PREFIX_DIGITS]


class DiskCache:
    """A one-file-per-entry JSON cache: ``<digest>.json``, flat in one
    directory that serves one code version.

    Opening it deletes every entry whose digest does not start with the
    current ``version_prefix()``.
    """

    def __init__(self, directory: Optional[str]):
        self.directory = directory
        if directory:
            os.makedirs(directory, exist_ok=True)
            self._prune()

    def _prune(self) -> None:
        prefix = version_prefix()
        for name in os.listdir(self.directory):
            if _ENTRY_NAME.fullmatch(name) and not name.startswith(prefix):
                try:
                    os.remove(os.path.join(self.directory, name))
                except FileNotFoundError:
                    pass  # another process pruned it first

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
