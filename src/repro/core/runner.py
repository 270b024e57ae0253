"""The workload runner: compile once, run per dataset, cache everything."""
from __future__ import annotations

import os
import traceback
from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import (
    TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple, Union,
)

from repro.compiler import CompiledProgram, RunConfig, compile_source
from repro.core.cache import DiskCache, run_digest
from repro.profiling.branch_profile import BranchProfile
from repro.vm.counters import RunResult
from repro.vm.machine import Machine
from repro.vm.monitors import BranchMonitor
from repro.workloads.base import Workload
from repro.workloads.registry import get_workload

if TYPE_CHECKING:
    from repro.core.parallel import RunFailure, RunRequest

#: Default on-disk cache location (override with the REPRO_CACHE_DIR
#: environment variable; set it to empty to disable).
DEFAULT_CACHE_DIR = ".repro-cache"


def _default_cache_dir() -> Optional[str]:
    value = os.environ.get("REPRO_CACHE_DIR")
    if value is None:
        return DEFAULT_CACHE_DIR
    return value or None


#: The memo key of one run: (workload, dataset, configuration).
RunKey = Tuple[str, str, RunConfig]


class WorkloadRunner:
    """Compiles and executes workloads, memoizing runs in memory and on disk.

    ``jobs`` sets the default fan-out for the batched ``run_many`` path
    (``None`` consults the ``REPRO_JOBS`` environment variable, ``0``
    means all cores); single ``run`` calls are always in-process.

    ``publish`` is an optional profile-publish hook,
    ``callable(result, dataset_name)``, invoked exactly once per
    (workload, dataset, config) triple when its result is first
    memoized — whether it came from a fresh execution, the disk cache,
    or a parallel worker.  The profile-feedback service's upload path
    (``ProfileClient.publisher()``) plugs in here.  Monitored runs are
    never memoized and therefore never published.
    """

    def __init__(
        self,
        cache_dir: Optional[str] = "auto",
        jobs: Optional[int] = None,
        publish: Optional[Callable[[RunResult, str], None]] = None,
    ):
        from repro.core.parallel import resolve_jobs

        if cache_dir == "auto":
            cache_dir = _default_cache_dir()
        self._disk = DiskCache(cache_dir)
        self._programs: Dict[Tuple[str, RunConfig], CompiledProgram] = {}
        self._runs: Dict[RunKey, RunResult] = {}
        self._machine = Machine()
        self.jobs = resolve_jobs(jobs)
        self.publish = publish

    def _memoize(self, key: RunKey, result: RunResult) -> None:
        """Record a result in the in-memory memo, publishing it on first
        sight.  Every path that materializes a result — serial run, disk
        hit, parallel collection — funnels through here, so the publish
        hook fires exactly once per triple per runner."""
        fresh = key not in self._runs
        self._runs[key] = result
        if fresh and self.publish is not None:
            self.publish(result, key[1])

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
        monitors: Sequence[BranchMonitor] = (),
    ) -> RunResult:
        """Run one (workload, dataset, configuration); results are cached
        unless monitors are attached (monitors observe the live stream)."""
        key = (workload_name, dataset_name, config)
        if monitors:
            return self._execute(key, monitors)
        if key not in self._runs:
            digest = self._digest(key)
            cached = self._disk.load(digest)
            if cached is None:
                cached = self._execute(key, ())
                self._disk.store(digest, cached)
            self._memoize(key, cached)
        return self._runs[key]

    def _digest(self, key: RunKey) -> str:
        """The disk-cache digest of one triple; raises for an unknown
        workload or dataset."""
        workload_name, dataset_name, config = key
        workload = get_workload(workload_name)
        return run_digest(
            workload.source,
            workload.dataset(dataset_name).data,
            config.tag(),
        )

    def _execute(
        self, key: RunKey, monitors: Sequence[BranchMonitor]
    ) -> RunResult:
        # Compiled programs are memoized per (workload, config), and the
        # VM engine caches its generated Python functions on the
        # LoweredProgram itself — so a sweep over many datasets of one
        # workload compiles both exactly once per process.
        workload_name, dataset_name, config = key
        workload = get_workload(workload_name)
        dataset = workload.dataset(dataset_name)
        compiled = self.compiled(workload_name, config=config)
        return self._machine.run(
            compiled.lowered, input_data=dataset.data, monitors=monitors
        )

    def run_many(
        self,
        requests: Sequence[RunRequest],
        jobs: Optional[int] = None,
        on_error: str = "raise",
    ) -> List[Union[RunResult, RunFailure]]:
        """Run a batch of ``RunRequest`` triples; results come back in
        request order and are memoized exactly as if each triple had gone
        through ``run``.

        Each unique triple is checked against the memo, digested and
        looked up on disk once.  With more than one miss, ``jobs > 1``
        (``None`` means this runner's ``jobs``) and a disk cache, the
        misses go to a process pool whose workers publish results through
        the cache; one serial loop then executes and stores every miss the
        pool did not publish, so serial and parallel execution are
        byte-identical.  ``on_error="raise"`` raises
        ``ParallelExecutionError`` after the whole batch has been
        attempted; ``on_error="capture"`` returns ``RunFailure`` objects
        in the failed slots instead.
        """
        from repro.core.parallel import (
            ParallelExecutionError,
            RunFailure,
            resolve_jobs,
        )

        if on_error not in ("raise", "capture"):
            raise ValueError(
                f"on_error must be 'raise' or 'capture', got {on_error!r}"
            )
        jobs = self.jobs if jobs is None else resolve_jobs(jobs)
        failures: Dict[RunKey, RunFailure] = {}
        misses: Dict[RunKey, Tuple[RunRequest, str]] = {}
        for request in requests:
            key = request.key()
            if key in self._runs or key in failures or key in misses:
                continue
            try:
                digest = self._digest(key)
            except Exception:
                failures[key] = RunFailure(request, traceback.format_exc())
                continue
            cached = self._disk.load(digest)
            if cached is None:
                misses[key] = (request, digest)
            else:
                self._memoize(key, cached)

        published: Dict[RunKey, Optional[str]] = {}
        if jobs > 1 and len(misses) > 1 and self._disk.directory:
            published = self._run_pool(misses, min(jobs, len(misses)))
        for key, (request, digest) in misses.items():
            error = published.get(key)
            if error is not None:
                failures[key] = RunFailure(request, error)
                continue
            result = self._disk.load(digest) if key in published else None
            if result is None:
                try:
                    result = self._execute(key, ())
                except Exception:
                    failures[key] = RunFailure(request, traceback.format_exc())
                    continue
                self._disk.store(digest, result)
            self._memoize(key, result)

        if failures and on_error == "raise":
            raise ParallelExecutionError(list(failures.values()))
        return [
            failures[request.key()] if request.key() in failures
            else self._runs[request.key()]
            for request in requests
        ]

    def _run_pool(
        self, misses: Dict[RunKey, Tuple[RunRequest, str]], workers: int
    ) -> Dict[RunKey, Optional[str]]:
        """Execute misses in worker processes that publish through the
        disk cache.  Returns each finished triple's error slot (``None``
        once published); a triple missing from the answer — its worker
        was killed, or the pool never started — is left to the caller."""
        outcomes: Dict[RunKey, Optional[str]] = {}
        try:
            with ProcessPoolExecutor(
                max_workers=workers,
                initializer=_worker_init,
                initargs=(self._disk.directory,),
            ) as pool:
                futures = {
                    pool.submit(_worker_execute, key, digest): key
                    for key, (_, digest) in misses.items()
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
        workload = get_workload(workload_name)
        names = workload.dataset_names()
        if self.jobs > 1:
            from repro.core.parallel import RunRequest

            self.run_many(
                [RunRequest(workload_name, name, config) for name in names]
            )
        return {
            name: self.run(workload_name, name, config=config)
            for name in names
        }

    # -- profiles -----------------------------------------------------------------

    def profile(
        self,
        workload_name: str,
        dataset_name: str,
        config: RunConfig = RunConfig(),
    ) -> BranchProfile:
        """The branch profile of one (workload, dataset) run."""
        return BranchProfile.from_run(
            self.run(workload_name, dataset_name, config=config)
        )

    def profiles(self, workload_name: str) -> Dict[str, BranchProfile]:
        """Branch profiles for every dataset of a workload."""
        return {
            name: BranchProfile.from_run(result)
            for name, result in self.run_all(workload_name).items()
        }

    def workload(self, workload_name: str) -> Workload:
        """Convenience pass-through to the registry."""
        return get_workload(workload_name)


# -- worker side of run_many's process pool -----------------------------------

_WORKER_RUNNER: Optional[WorkloadRunner] = None


def _worker_init(cache_dir: str) -> None:
    """Build one runner per worker process so compiled programs — and the
    engine's generated functions cached on them — are reused across the
    runs a worker executes."""
    global _WORKER_RUNNER
    _WORKER_RUNNER = WorkloadRunner(cache_dir=cache_dir)


def _worker_execute(key: RunKey, digest: str) -> Optional[str]:
    """Execute one miss and publish it under its digest.

    Returns ``None`` on success or a formatted traceback on failure —
    never raises, so one bad triple cannot poison the pool.
    """
    try:
        _WORKER_RUNNER._disk.store(digest, _WORKER_RUNNER._execute(key, ()))
        return None
    except Exception:
        return traceback.format_exc()
