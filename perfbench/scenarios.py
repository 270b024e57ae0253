"""The three benchmark workloads.

Each workload is a closed loop in one process (``jobs=1``); the serve
workload's server is the only second process.  A workload splits one
iteration into ``prepare`` (untimed), ``work`` (the timed region) and
``verify`` (untimed, compares the outputs against the goldens).  ``work``
times each of its ops with a :class:`Stopwatch`, which also samples the
host's speed between ops, and returns everything the checks need plus
the stopwatch.  The ops and their order are the same in every iteration
of a run.  Every iteration gets its own cache
directory under the run's private work directory;
``REPRO_CACHE_DIR`` and the repo's ``.repro-cache`` are never consulted.
"""
from __future__ import annotations

import math
import os
import random
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional, Tuple

import repro
from repro.core.parallel import RunRequest, dataset_requests
from repro.core.runner import WorkloadRunner
from repro.experiments import (
    dynamic_compare, figure1, figure2, figure3, runlengths, table3,
)
from repro.prediction.combine import COMBINE_MODES
from repro.profiling.branch_profile import BranchProfile
from repro.profiling.database import ProfileDatabase
from repro.serve import protocol
from repro.serve.aggregator import database_predict
from repro.serve.client import ProfileClient, RetryPolicy
from repro.workloads.registry import all_workloads, get_workload

import hostspeed
import layers
from oracle import PROFILES_PATH, Oracle, load_json

#: Renders that follow the cold sweep, by golden name.
SWEEP_TABLES = (
    ("table3", table3),
    ("figure1", figure1),
    ("figure2", figure2),
    ("figure3", figure3),
)

#: Renders of the monitored workload, by golden name: the ``dynamic`` and
#: ``runlengths`` experiments, one render per program.
MONITORED_TABLES = tuple(
    (f"dynamic/{program}", dynamic_compare, {"programs": [program]})
    for program in dynamic_compare.DEFAULT_PROGRAMS
) + tuple(
    (f"runlengths/{program}/{dataset}", runlengths,
     {"programs": [(program, dataset)]})
    for program, dataset in runlengths.DEFAULT_PROGRAMS
)

#: Spans every workload that compiles must record: the compile stages,
#: the paper configuration's passes and predecode.
_COMPILE_SPANS = (
    "lang.parse", "lang.sema", "lang.codegen", "opt.optimize",
    "ir.validate", "ir.lower", "vm.predecode",
) + tuple(f"opt.pass.{name}" for name in layers.PAPER_PASSES)


class Stopwatch:
    """Times the named ops of one iteration.  After each op it samples the
    host's speed (``hostspeed``) for a tenth of the op's time.  An op
    that raises returns its exception, which the iteration's checks count
    as a failed op."""

    def __init__(self) -> None:
        self.times: Dict[str, float] = {}
        self.reference = hostspeed.Reference()

    def time(self, key: str, call, *args, **kwargs) -> Any:
        started = time.perf_counter()
        try:
            return call(*args, **kwargs)
        except Exception as exc:  # counted as one failed op
            return exc
        finally:
            elapsed = time.perf_counter() - started
            self.times[key] = elapsed
            self.reference.sample(elapsed / 10)


def render(module, runner, **kwargs) -> str:
    return module.run(runner, **kwargs).format_text()


def percentile(samples: List[float], fraction: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ranked = sorted(samples)
    rank = max(1, math.ceil(round(fraction * len(ranked), 9)))
    return ranked[rank - 1]


class Scenario:
    """One workload: set-up, a timed iteration, checks, tear-down."""

    name = ""
    #: Set-ups timed per untraced run (this process's plus fresh ones).
    setup_samples = 5
    #: Fewest timed iterations of an untraced run, whatever ``--seconds``.
    min_iterations = 1
    #: (untraced, traced) iterations of a ``--trace 1`` run.
    trace_iterations = (1, 1)
    #: Span names that must see calls in a traced run.
    expected_calls: Tuple[str, ...] = ()
    #: Least share of the traced wall time the stage layers' self times
    #: (``layers.STAGE_LAYERS``) must cover.
    coverage_floor: Optional[float] = None
    #: Whether ``verify`` keeps latency samples; off for traced iterations.
    sampling = True

    def __init__(self, seed: int, workdir: str):
        self.rng = random.Random(seed)
        self.workdir = workdir

    def setup(self, reference: hostspeed.Reference) -> None:
        """Untimed here; ``run.py`` times it.  A long set-up samples the
        host's speed into ``reference`` as it goes."""
        self.workloads = all_workloads()

    def prepare(self) -> Any:
        return None

    def work(self, state: Any) -> Tuple[Any, Stopwatch]:
        """The timed ops: (outcome for ``verify``, their stopwatch)."""
        raise NotImplementedError

    def verify(self, state: Any, outcome: Any, oracle: Oracle) -> None:
        raise NotImplementedError

    def cleanup(self, state: Any) -> None:
        pass

    def finish(self, oracle: Oracle) -> None:
        """Checks that need the whole run, before tear-down."""

    def teardown(self) -> None:
        pass

    def peak_rss_mb(self) -> float:
        """Peak RSS of the process doing the work (Linux reports KiB)."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def check_trace(self, counts: Dict[str, float], oracle: Oracle) -> None:
        """Workload-specific invariants on the traced counters."""

    def layer_values(self) -> Dict[str, float]:
        """Per-layer metrics the spans cannot give (serve side)."""
        return {}

    def summary(self) -> List[str]:
        """Extra human-readable result lines."""
        return []


class ColdSweep(Scenario):
    """All 51 paper-configuration runs on an empty cache, then the
    table3/figure1/figure2/figure3 renders."""

    name = "cold-sweep"
    expected_calls = _COMPILE_SPANS + (
        "vm.run_fast", "cache.load", "cache.store", "runner.compiled",
        "parallel.run_many", "experiments.table3", "experiments.figure1",
        "experiments.figure2", "experiments.figure3",
    )
    coverage_floor = 0.9

    def setup(self, reference) -> None:
        super().setup(reference)
        # The seed sets the request order, once per run.  Each program is
        # compiled just before its first run, so every op does the same
        # work in every iteration.
        self.requests = dataset_requests(self.workloads)
        self.rng.shuffle(self.requests)

    def prepare(self):
        return tempfile.mkdtemp(prefix="cold-", dir=self.workdir)

    def work(self, cache_dir):
        clock = Stopwatch()
        runner = WorkloadRunner(cache_dir=cache_dir, jobs=1)
        compiles: Dict[str, Any] = {}
        results: List[Any] = []
        for request in self.requests:
            program = request.workload
            if program not in compiles:
                compiles[program] = clock.time(
                    f"compile {program}", runner.compiled, program
                )
            batch = clock.time(
                f"run {program}/{request.dataset}",
                runner.run_many, [request], on_error="capture",
            )
            results.append(batch if isinstance(batch, Exception) else batch[0])
        tables = {
            name: clock.time(f"render {name}", render, module, runner)
            for name, module in SWEEP_TABLES
        }
        return (compiles, results, tables), clock

    def verify(self, cache_dir, outcome, oracle):
        compiles, results, tables = outcome
        for program, compiled in compiles.items():
            oracle.op(
                not isinstance(compiled, Exception),
                f"compile {program}: {compiled!r:.200}",
            )
        for request, result in zip(self.requests, results):
            oracle.check_run(f"{request.workload}/{request.dataset}", result)
        for name, text in tables.items():
            oracle.check_table(name, text)
        stored = [name for name in os.listdir(cache_dir) if name.endswith(".json")]
        if len(stored) != len(self.requests):
            oracle.problem(
                f"cold sweep stored {len(stored)} cache entries, "
                f"expected {len(self.requests)}"
            )

    def cleanup(self, cache_dir):
        shutil.rmtree(cache_dir, ignore_errors=True)

    def check_trace(self, counts, oracle):
        if counts["cache.hits"]:
            oracle.problem(
                f"cold sweep saw {counts['cache.hits']:.0f} cache hits; "
                "it must start from an empty cache"
            )


class MonitoredWarm(Scenario):
    """The ``dynamic`` and ``runlengths`` experiments on a warm cache."""

    name = "monitored-warm"
    # Its set-up includes a ~10 s cache fill; two samples keep a run
    # inside the benchmark's time budget.
    setup_samples = 2
    min_iterations = 2
    expected_calls = _COMPILE_SPANS + (
        "vm.run_monitored", "cache.load", "runner.compiled",
        "parallel.run_many", "experiments.dynamic", "experiments.runlengths",
    )
    coverage_floor = 0.9

    def setup(self, reference) -> None:
        super().setup(reference)
        self.cache_dir = tempfile.mkdtemp(prefix="warm-", dir=self.workdir)
        requests = dataset_requests(
            [get_workload(name) for name in dynamic_compare.DEFAULT_PROGRAMS]
        ) + [
            RunRequest(program, dataset)
            for program, dataset in runlengths.DEFAULT_PROGRAMS
        ]
        runner = WorkloadRunner(cache_dir=self.cache_dir, jobs=1)
        for request in requests:
            started = time.perf_counter()
            runner.run_many([request])
            reference.sample((time.perf_counter() - started) / 10)
        self.entries = sorted(os.listdir(self.cache_dir))

    def work(self, state):
        # A fixed order: every program is compiled before the renders.
        clock = Stopwatch()
        runner = WorkloadRunner(cache_dir=self.cache_dir, jobs=1)
        programs = list(dynamic_compare.DEFAULT_PROGRAMS) + [
            program for program, _ in runlengths.DEFAULT_PROGRAMS
        ]
        compiles = {
            program: clock.time(f"compile {program}", runner.compiled, program)
            for program in dict.fromkeys(programs)
        }
        tables = {
            name: clock.time(f"render {name}", render, module, runner, **kwargs)
            for name, module, kwargs in MONITORED_TABLES
        }
        return (compiles, tables), clock

    def verify(self, state, outcome, oracle):
        compiles, tables = outcome
        for program, compiled in compiles.items():
            oracle.op(
                not isinstance(compiled, Exception),
                f"compile {program}: {compiled!r:.200}",
            )
        for name, text in tables.items():
            oracle.check_table(name, text)
        if sorted(os.listdir(self.cache_dir)) != self.entries:
            oracle.problem("the warm cache was written; it must only be read")

    def check_trace(self, counts, oracle):
        if not counts["cache.hits"]:
            oracle.problem("the warm cache served no hits")


class ServeFeedback(Scenario):
    """Upload the 51 real profiles to a ``repro-serve`` subprocess, then
    ask for every leave-one-out prediction in all three combine modes."""

    name = "serve-feedback"
    trace_iterations = (20, 10)
    expected_calls = ("serve.upload", "serve.predict")

    server: Optional[subprocess.Popen] = None
    client: Optional[ProfileClient] = None

    def setup(self, reference) -> None:
        self.uploads = [
            (entry["program"], entry["dataset"],
             BranchProfile.from_dict(entry["profile"]))
            for entry in load_json(PROFILES_PATH)["profiles"]
        ]
        datasets: Dict[str, List[str]] = {}
        for program, dataset, _ in self.uploads:
            datasets.setdefault(program, []).append(dataset)
        self.predicts = [
            (program, dataset, mode)
            for program, names in datasets.items() if len(names) > 1
            for dataset in names
            for mode in COMBINE_MODES
        ]
        # The seed sets the upload and predict order, once per run.
        self.rng.shuffle(self.uploads)
        self.rng.shuffle(self.predicts)
        self.offline = ProfileDatabase()
        self.sent = 0
        self.upload_latencies: List[float] = []
        self.predict_latencies: List[float] = []
        self.stats: Dict[str, Any] = {}
        self.server_rss_mb = 0.0
        # Client and server share one CPU (the server inherits the
        # client's affinity): the host-speed samples, taken in the client,
        # then describe the server's CPU too, and no request waits for an
        # idle CPU to wake up.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self.server = self._start_server()
        self.client = ProfileClient(
            self.host, self.port, timeout=30.0, retry=RetryPolicy(attempts=1)
        )

    def _start_server(self) -> subprocess.Popen:
        ready = os.path.join(self.workdir, "server.ready")
        self.log_path = os.path.join(self.workdir, "server.log")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.dirname(os.path.dirname(repro.__file__))]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        with open(self.log_path, "w") as log:
            server = subprocess.Popen(
                [
                    sys.executable, "-m", "repro.serve.cli", "serve",
                    "--host", "127.0.0.1", "--port", "0",
                    "--db", os.path.join(self.workdir, "server-db"),
                    "--ready-file", ready,
                ],
                stdout=subprocess.DEVNULL, stderr=log, env=env,
            )
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            if server.poll() is not None:
                raise RuntimeError(f"repro-serve exited: {self._log_tail()}")
            if os.path.exists(ready):
                with open(ready) as handle:
                    address = handle.read()
                if address.endswith("\n"):
                    host, _, port = address.strip().rpartition(":")
                    self.host, self.port = host, int(port)
                    return server
            time.sleep(0.01)
        self._stop_server(server)
        raise RuntimeError("repro-serve did not become ready within 60 s")

    def _log_tail(self) -> str:
        with open(self.log_path) as handle:
            return handle.read()[-2000:]

    @staticmethod
    def _stop_server(server: subprocess.Popen) -> None:
        server.terminate()
        try:
            server.wait(timeout=30)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()

    def work(self, state):
        clock = Stopwatch()
        client = self.client
        upload_outcomes = [
            clock.time(f"upload {program}/{dataset}",
                       client.upload_profile, program, dataset, profile)
            for program, dataset, profile in self.uploads
        ]
        answers = [
            clock.time(f"predict {program}/{dataset}/{mode}",
                       client.predict, program, mode=mode, exclude=dataset)
            for program, dataset, mode in self.predicts
        ]
        return (upload_outcomes, answers, clock.times), clock

    def verify(self, state, outcome, oracle):
        upload_outcomes, answers, times = outcome
        for (program, dataset, profile), epoch in zip(
            self.uploads, upload_outcomes
        ):
            accepted = isinstance(epoch, int)
            oracle.op(accepted, f"upload {program}/{dataset}: {epoch}")
            if accepted:
                self.offline.record_profile(program, dataset, profile)
                self.sent += 1
        for (program, dataset, mode), answer in zip(self.predicts, answers):
            what = f"predict {program} exclude={dataset} mode={mode}"
            if isinstance(answer, Exception):
                oracle.op(False, f"{what}: {answer}")
                continue
            expected, names = database_predict(
                self.offline, program, mode=mode, exclude=dataset
            )
            oracle.op(
                answer.datasets == names
                and protocol.canonical_profile_bytes(answer.profile)
                == protocol.canonical_profile_bytes(expected),
                f"{what}: served bytes differ from offline database_predict",
            )
        if self.sampling:
            self.upload_latencies += [
                times[f"upload {program}/{dataset}"]
                for program, dataset, _ in self.uploads
            ]
            self.predict_latencies += [
                times[f"predict {program}/{dataset}/{mode}"]
                for program, dataset, mode in self.predicts
            ]

    def finish(self, oracle):
        self.stats = self.client.stats()
        epoch = self.stats["stats"]["epoch"]
        if epoch != self.sent:
            oracle.problem(f"server epoch {epoch} != {self.sent} uploads sent")
        with open(f"/proc/{self.server.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    self.server_rss_mb = int(line.split()[1]) / 1024.0

    def teardown(self) -> None:
        if self.client is not None:
            self.client.close()
        if self.server is not None:
            self._stop_server(self.server)

    def peak_rss_mb(self) -> float:
        return self.server_rss_mb

    def _client_figures(self) -> Dict[str, float]:
        uploads, predicts = self.upload_latencies, self.predict_latencies
        return {
            "serve.upload_rps": len(uploads) / sum(uploads),
            "serve.upload_p50_ms": percentile(uploads, 0.50) * 1e3,
            "serve.upload_p99_ms": percentile(uploads, 0.99) * 1e3,
            "serve.predict_p50_ms": percentile(predicts, 0.50) * 1e3,
            "serve.predict_p99_ms": percentile(predicts, 0.99) * 1e3,
        }

    def _iteration_request_bytes(self) -> int:
        """Bytes of the request frames one iteration sends."""
        return sum(
            len(protocol.encode_frame(protocol.request(
                "upload", program=program, dataset=dataset,
                profile=protocol.profile_to_wire(profile),
            )))
            for program, dataset, profile in self.uploads
        ) + sum(
            len(protocol.encode_frame(protocol.request(
                "predict", program=program, mode=mode, exclude=dataset,
            )))
            for program, dataset, mode in self.predicts
        )

    def layer_values(self) -> Dict[str, float]:
        metrics = self.stats["metrics"]
        upload = metrics["latency"]["upload"]
        predict = metrics["latency"]["predict"]
        client_mean = sum(self.upload_latencies) / len(self.upload_latencies)
        values = self._client_figures()
        values.update({
            "serve.server_upload_p50_ms": upload["p50_s"] * 1e3,
            "serve.server_predict_p50_ms": predict["p50_s"] * 1e3,
            # The server's p50 is a histogram bucket bound, so the wire
            # share of an upload is taken from the exact means instead.
            "serve.wire_upload_ms": (client_mean - upload["mean_s"]) * 1e3,
            "serve.request_bytes": float(self._iteration_request_bytes()),
            "serve.inflight_peak": float(metrics["queue"]["inflight_peak"]),
            "serve.epoch": float(self.stats["stats"]["epoch"]),
        })
        return values

    def summary(self) -> List[str]:
        figures = self._client_figures()
        return [
            f"upload_rps      {figures['serve.upload_rps']:.1f} req/s",
            f"upload_p50_ms   {figures['serve.upload_p50_ms']:.3f} ms "
            f"(p99 {figures['serve.upload_p99_ms']:.3f} ms, "
            f"n={len(self.upload_latencies)})",
            f"predict_p50_ms  {figures['serve.predict_p50_ms']:.3f} ms "
            f"(p99 {figures['serve.predict_p99_ms']:.3f} ms, "
            f"n={len(self.predict_latencies)})",
            f"server epoch    {self.stats['stats']['epoch']} "
            f"(uploads sent {self.sent})",
        ]


SCENARIOS = {
    scenario.name: scenario
    for scenario in (ColdSweep, MonitoredWarm, ServeFeedback)
}
