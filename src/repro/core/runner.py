"""The workload runner: compile once, run per dataset, cache everything."""
from __future__ import annotations

import dataclasses
import os
import traceback
from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.compiler import CompiledProgram, RunConfig, compile_source
from repro.core import specs
from repro.core.cache import DiskCache, run_digest
from repro.core.parallel import (
    ParallelExecutionError,
    RunFailure,
    RunRequest,
    resolve_jobs,
)
from repro.vm.counters import RunResult
from repro.vm.machine import run_program
from repro.workloads.costs import PAPER_INSTRUCTIONS
from repro.workloads.registry import get_workload

#: What one request answers: a plain run's result, or a monitored run's
#: summaries, one per spec.
Answer = Union[RunResult, Tuple[specs.Summary, ...]]

#: One run's outcome: ``(answer, None)`` or ``(None, traceback)``.
_Outcome = Tuple[Optional[Answer], Optional[str]]

#: Default on-disk cache location (override with the REPRO_CACHE_DIR
#: environment variable; set it to empty to disable).
DEFAULT_CACHE_DIR = ".repro-cache"


def _default_cache_dir() -> Optional[str]:
    value = os.environ.get("REPRO_CACHE_DIR")
    if value is None:
        return DEFAULT_CACHE_DIR
    return value or None


class WorkloadRunner:
    """Compiles and executes workloads, memoizing runs in memory and on disk.

    ``jobs`` sets the fan-out of ``run_many`` (``0`` means all cores).
    ``run_many`` is the one path that looks a run up, executes it and
    stores it; ``run`` and ``run_all`` are batches of one workload.
    ``executions`` counts the runs executed so far, in the pool or here;
    memo and disk hits do not count, and the monitored requests of one
    triple in one batch count once.
    """

    def __init__(self, cache_dir: Optional[str] = "auto", jobs: int = 1):
        if cache_dir == "auto":
            cache_dir = _default_cache_dir()
        self._disk = DiskCache(cache_dir)
        self._programs: Dict[Tuple[str, RunConfig], CompiledProgram] = {}
        self._runs: Dict[RunRequest, Answer] = {}
        self.jobs = resolve_jobs(jobs)
        self.executions = 0

    # -- compilation ----------------------------------------------------------

    def compiled(
        self, workload_name: str, config: RunConfig = RunConfig()
    ) -> CompiledProgram:
        """The compiled program for a workload (cached per configuration)."""
        key = (workload_name, config)
        if key not in self._programs:
            workload = get_workload(workload_name)
            self._programs[key] = compile_source(
                workload.source, name=workload.name, config=config
            )
        return self._programs[key]

    # -- execution ----------------------------------------------------------------

    def run(
        self,
        workload_name: str,
        dataset_name: str,
        config: RunConfig = RunConfig(),
    ) -> RunResult:
        """Run one (workload, dataset, configuration) through ``run_many``."""
        return self.run_many([RunRequest(workload_name, dataset_name, config)])[0]

    def _digest(self, request: RunRequest) -> str:
        """The disk-cache digest of one triple; raises for an unknown
        workload or dataset."""
        workload = get_workload(request.workload)
        return run_digest(
            workload.source,
            workload.dataset(request.dataset).data,
            request.config.tag(),
        )

    def _execute(self, request: RunRequest) -> Answer:
        # Compiled programs are memoized per (workload, config), and the
        # VM engine caches its generated Python functions on the
        # LoweredProgram itself — so a sweep over many datasets of one
        # workload compiles both exactly once per process.
        dataset = get_workload(request.workload).dataset(request.dataset)
        lowered = self.compiled(request.workload, config=request.config).lowered
        if not request.monitors:
            return run_program(lowered, input_data=dataset.data)
        monitors, summarize = specs.attach(
            request.monitors, self._runs[request.plain()]
        )
        return summarize(
            run_program(lowered, input_data=dataset.data, monitors=monitors)
        )

    def run_many(
        self,
        requests: Sequence[RunRequest],
        on_error: str = "raise",
    ) -> List[Union[Answer, RunFailure]]:
        """Run a batch of requests; answers come back in request order and
        are memoized per request.

        Each unique plain triple is checked against the memo, digested and
        looked up on disk once.  With more than one miss and ``jobs > 1``
        the misses go to a process pool whose workers return their
        results; one serial loop then takes each pool result, or executes
        the miss itself when the pool did not return it, and stores it:
        this runner is the only reader and writer of its disk cache.

        A monitored request's plain triple is fetched with the rest, since
        a spec may need its counters (``runlengths(self)``).  The monitored
        requests of one triple then execute here as one run, in
        first-seen order, carrying the union of their specs in first-seen
        order; each request gets its own specs' summaries.  Summaries are
        memoized but never written to disk.  An unknown spec fails only
        its own request, as an unknown dataset does; a failure of the run
        fails every request that shares it.

        ``on_error="raise"`` raises ``ParallelExecutionError``, listing
        the failed requests of the batch in request order, after the whole
        batch has been attempted; ``on_error="capture"`` returns
        ``RunFailure`` objects in the failed slots instead.
        """
        if on_error not in ("raise", "capture"):
            raise ValueError(
                f"on_error must be 'raise' or 'capture', got {on_error!r}"
            )
        failures: Dict[RunRequest, RunFailure] = {}
        misses: Dict[RunRequest, str] = {}
        monitored: Dict[RunRequest, None] = {}
        for request in requests:
            if (
                request in self._runs
                or request in failures
                or request in misses
                or request in monitored
            ):
                continue
            plain = request.plain()
            try:
                specs.check(request.monitors)
                digest = self._digest(plain)
            except Exception:
                failures[request] = RunFailure(request, traceback.format_exc())
                continue
            if request.monitors:
                monitored[request] = None
            if plain in self._runs or plain in misses:
                continue
            cached = self._disk.load(digest)
            if cached is None:
                misses[plain] = digest
            else:
                self._runs[plain] = cached

        pooled: Dict[RunRequest, _Outcome] = {}
        if self.jobs > 1 and len(misses) > 1:
            pooled = self._run_pool(list(misses), min(self.jobs, len(misses)))
        for request, digest in misses.items():
            result, error = pooled.get(request) or _execute_captured(
                self, request
            )
            self.executions += 1
            if result is None:
                failures[request] = RunFailure(request, error or "")
                continue
            self._disk.store(digest, result)
            self._runs[request] = result
        groups: Dict[RunRequest, List[RunRequest]] = {}
        for request in monitored:
            groups.setdefault(request.plain(), []).append(request)
        for plain, members in groups.items():
            if plain in failures:
                error = failures[plain].error
            else:
                union = tuple(
                    dict.fromkeys(spec for req in members for spec in req.monitors)
                )
                summaries, error = _execute_captured(
                    self, dataclasses.replace(plain, monitors=union)
                )
                self.executions += 1
                if summaries is not None:
                    by_spec = dict(zip(union, summaries))
                    for request in members:
                        self._runs[request] = tuple(
                            by_spec[spec] for spec in request.monitors
                        )
                    continue
            for request in members:
                failures[request] = RunFailure(request, error or "")

        failed = [
            failures[request]
            for request in dict.fromkeys(requests)
            if request in failures
        ]
        if failed and on_error == "raise":
            raise ParallelExecutionError(failed)
        return [
            failures[request] if request in failures else self._runs[request]
            for request in requests
        ]

    def _run_pool(
        self, misses: List[RunRequest], workers: int
    ) -> Dict[RunRequest, _Outcome]:
        """Execute misses in worker processes, submitting the longest
        expected runs first.  Returns each returned triple's
        ``(result, traceback)`` pair; a triple missing from the answer —
        its worker was killed, or the pool never started — is left to
        the caller."""
        outcomes: Dict[RunRequest, _Outcome] = {}
        longest_first = sorted(
            misses,
            key=lambda request: -PAPER_INSTRUCTIONS.get(
                (request.workload, request.dataset), 0
            ),
        )
        try:
            with ProcessPoolExecutor(
                max_workers=workers, initializer=_worker_init
            ) as pool:
                futures = {
                    pool.submit(_worker_execute, request): request
                    for request in longest_first
                }
                for future in as_completed(futures):
                    if future.exception() is None:
                        outcomes[futures[future]] = future.result()
        except Exception:
            pass  # the pool could not start or broke down
        return outcomes

    def run_all(
        self, workload_name: str, config: RunConfig = RunConfig()
    ) -> Dict[str, RunResult]:
        """Run a workload on every dataset; dataset name -> result."""
        names = get_workload(workload_name).dataset_names()
        requests = [RunRequest(workload_name, name, config) for name in names]
        return dict(zip(names, self.run_many(requests)))


# -- worker side of run_many's process pool -----------------------------------

_WORKER_RUNNER: Optional[WorkloadRunner] = None


def _execute_captured(runner: WorkloadRunner, request: RunRequest) -> _Outcome:
    """Execute one run: ``(answer, None)`` on success or
    ``(None, traceback)`` on failure — never raises, so one bad triple
    cannot poison the batch or the pool."""
    try:
        return runner._execute(request), None
    except Exception:
        return None, traceback.format_exc()


def _worker_init() -> None:
    """Build one cache-less runner per worker process so compiled
    programs — and the engine's generated functions cached on them — are
    reused across the runs a worker executes."""
    global _WORKER_RUNNER
    _WORKER_RUNNER = WorkloadRunner(cache_dir=None)


def _worker_execute(request: RunRequest) -> _Outcome:
    """Execute one miss in a worker and return its outcome to the parent."""
    return _execute_captured(_WORKER_RUNNER, request)
