"""The vocabulary of batched runs, and the job-count setting.

Every experiment sweep is arithmetic over many independent
(workload, dataset, RunConfig) triples, and simulating a triple takes
seconds while aggregating it takes microseconds.  A sweep is a list of
``RunRequest``s handed to ``WorkloadRunner.run_many``, which fans the
cache misses across a process pool when its job count exceeds 1.  This
module holds what callers of ``run_many`` need (see docs/PARALLEL.md for
the long form):

* ``RunRequest`` — one triple, and ``dataset_requests`` to expand
  workloads into them;
* ``RunFailure`` and ``ParallelExecutionError`` — a failing triple is
  reported by name and never poisons the rest of the batch, which
  completes and is cached normally;
* ``resolve_jobs`` — an explicit count, else ``REPRO_JOBS``, else 1.

Workers publish results through the on-disk run cache and the parent
loads them back, so a result computed in a worker is indistinguishable
from one computed in-process: serial and parallel execution are
byte-identical.
"""
from __future__ import annotations

import dataclasses
import os
from typing import Iterable, List, Optional, Sequence

from repro.core.runner import RunConfig, RunKey
from repro.workloads.base import Workload

#: Environment variable consulted when no explicit job count is given.
ENV_JOBS = "REPRO_JOBS"


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Resolve a worker count: explicit value, else ``REPRO_JOBS``, else 1.

    ``0`` means "all cores" (``os.cpu_count()``); negative values and
    non-integer environment values raise ``ValueError``.
    """
    if jobs is None:
        raw = os.environ.get(ENV_JOBS)
        if raw is None or not raw.strip():
            return 1
        try:
            jobs = int(raw)
        except ValueError:
            raise ValueError(
                f"{ENV_JOBS} must be an integer, got {raw!r}"
            ) from None
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


@dataclasses.dataclass(frozen=True)
class RunRequest:
    """One (workload, dataset, configuration) triple of a sweep."""

    workload: str
    dataset: str
    config: RunConfig = RunConfig()

    def key(self) -> RunKey:
        """The WorkloadRunner memoization key for this request."""
        return (self.workload, self.dataset, self.config)

    def describe(self) -> str:
        return f"{self.workload}/{self.dataset} [{self.config.tag()}]"


@dataclasses.dataclass
class RunFailure:
    """A captured per-run error: which triple failed, and why."""

    request: RunRequest
    error: str

    def summary(self) -> str:
        last_line = self.error.strip().splitlines()[-1] if self.error else ""
        return f"{self.request.describe()}: {last_line}"


class ParallelExecutionError(RuntimeError):
    """One or more runs of a batch failed; the rest completed normally."""

    def __init__(self, failures: Sequence[RunFailure]):
        self.failures = list(failures)
        lines = "\n".join(f"  - {failure.summary()}" for failure in self.failures)
        super().__init__(
            f"{len(self.failures)} of the batched runs failed:\n{lines}"
        )


def dataset_requests(
    workloads: Iterable[Workload],
    configs: Sequence[RunConfig] = (RunConfig(),),
) -> List[RunRequest]:
    """Expand workloads into one request per (dataset, config) pair."""
    return [
        RunRequest(workload.name, dataset, config)
        for workload in workloads
        for config in configs
        for dataset in workload.dataset_names()
    ]
