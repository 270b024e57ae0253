"""The vocabulary of batched runs, and the job-count check.

Every experiment sweep is arithmetic over many independent
(workload, dataset, RunConfig) triples, and simulating a triple takes
seconds while aggregating it takes microseconds.  A sweep is a list of
``RunRequest``s handed to ``WorkloadRunner.run_many``, which fans the
cache misses across a process pool when its job count exceeds 1.  This
module holds what callers of ``run_many`` need (see docs/PARALLEL.md for
the long form):

* ``RunRequest`` — one triple, and ``dataset_requests`` to expand
  workloads into them; a request may also carry monitor specs
  (:mod:`repro.core.specs`), and its answer is then one summary per spec;
* ``RunFailure`` and ``ParallelExecutionError`` — a failing triple is
  reported by name and never poisons the rest of the batch, which
  completes and is cached normally;
* ``resolve_jobs`` — a job count, with ``0`` meaning all cores.

Workers return each result through the pool, and the parent stores and
memoizes it exactly as it does a result it computed itself, so serial
and parallel execution are byte-identical.
"""
from __future__ import annotations

import dataclasses
import os
from typing import Iterable, List, Sequence, Tuple

from repro.compiler import RunConfig
from repro.workloads.base import Workload


def resolve_jobs(jobs: int) -> int:
    """Resolve a worker count: ``0`` means "all cores"
    (``os.cpu_count()``); negative values raise ``ValueError``."""
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


@dataclasses.dataclass(frozen=True)
class RunRequest:
    """One (workload, dataset, configuration) triple of a sweep, and the
    key ``WorkloadRunner`` memoizes its result under.  With ``monitors``,
    a tuple of monitor specs (see :mod:`repro.core.specs`), the run is
    made with those monitors attached and its result is their summaries."""

    workload: str
    dataset: str
    config: RunConfig = RunConfig()
    monitors: Tuple[str, ...] = ()

    def plain(self) -> "RunRequest":
        """The same triple without monitors."""
        return dataclasses.replace(self, monitors=())

    def describe(self) -> str:
        text = f"{self.workload}/{self.dataset} [{self.config.tag()}]"
        if self.monitors:
            text += f" with {', '.join(self.monitors)}"
        return text


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
