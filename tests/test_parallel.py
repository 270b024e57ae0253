"""Parallel runner tests: equivalence, error isolation, jobs resolution."""
import collections
import os
from concurrent.futures import Future

import pytest

import repro.core.runner as runner_module
from repro.core.cache import DiskCache, run_result_to_dict
from repro.core.parallel import (
    ParallelExecutionError,
    RunFailure,
    RunRequest,
    dataset_requests,
    resolve_jobs,
)
from repro.core.runner import RunConfig, WorkloadRunner
from repro.workloads.costs import PAPER_INSTRUCTIONS
from repro.workloads.registry import all_workloads, get_workload

#: A small sweep spanning three workloads (fast to simulate cold).
SWEEP = [
    RunRequest("doduc", "tiny"),
    RunRequest("doduc", "small"),
    RunRequest("lfk", "default"),
    RunRequest("spice2g6", "circuit2"),
]


def _dicts(results):
    return [run_result_to_dict(result) for result in results]


def test_serial_and_parallel_results_identical(tmp_path):
    serial = WorkloadRunner(cache_dir=str(tmp_path / "serial"))
    fanout = WorkloadRunner(cache_dir=str(tmp_path / "fanout"), jobs=2)
    assert _dicts(serial.run_many(SWEEP)) == _dicts(fanout.run_many(SWEEP))


def test_run_many_memoizes_like_run(tmp_path):
    runner = WorkloadRunner(cache_dir=str(tmp_path), jobs=2)
    results = runner.run_many(SWEEP)
    # Later single runs are served from the same memo objects.
    assert runner.run("doduc", "tiny") is results[0]
    assert runner.run("lfk", "default") is results[2]


def test_run_many_preserves_request_order_and_duplicates(tmp_path):
    runner = WorkloadRunner(cache_dir=str(tmp_path), jobs=2)
    doubled = SWEEP + [SWEEP[0]]
    results = runner.run_many(doubled)
    assert len(results) == len(doubled)
    assert results[-1] is results[0]


def test_error_isolation_bad_triple_does_not_poison_batch(tmp_path):
    runner = WorkloadRunner(cache_dir=str(tmp_path), jobs=2)
    requests = SWEEP + [RunRequest("doduc", "nope")]
    with pytest.raises(ParallelExecutionError) as info:
        runner.run_many(requests)
    assert "doduc/nope" in str(info.value)
    assert len(info.value.failures) == 1
    # The good triples completed and were memoized despite the failure.
    for request in SWEEP:
        assert request in runner._runs


def test_error_capture_mode_returns_failures_in_place(tmp_path):
    runner = WorkloadRunner(cache_dir=str(tmp_path), jobs=2)
    requests = [RunRequest("no-such-workload", "x")] + SWEEP
    results = runner.run_many(requests, on_error="capture")
    assert isinstance(results[0], RunFailure)
    assert "no-such-workload" in results[0].summary()
    assert not any(isinstance(result, RunFailure) for result in results[1:])


def test_run_many_rejects_unknown_on_error_mode(tmp_path):
    runner = WorkloadRunner(cache_dir=str(tmp_path))
    with pytest.raises(ValueError, match="on_error"):
        runner.run_many(SWEEP, on_error="ignore")


def _spy_on_pool(monkeypatch):
    """Record what each ``_run_pool`` call returns to the parent."""
    returned = []
    real_run_pool = WorkloadRunner._run_pool

    def spy(self, *args):
        outcomes = real_run_pool(self, *args)
        returned.append(outcomes)
        return outcomes

    monkeypatch.setattr(WorkloadRunner, "_run_pool", spy)
    return returned


def test_cacheless_batch_fans_out_and_matches_serial(monkeypatch):
    expected = _dicts(WorkloadRunner(cache_dir=None).run_many(SWEEP))
    returned = _spy_on_pool(monkeypatch)
    fanout = WorkloadRunner(cache_dir=None, jobs=2)
    assert _dicts(fanout.run_many(SWEEP)) == expected
    assert len(returned) == 1
    assert set(returned[0]) == set(SWEEP)
    assert all(error is None for _, error in returned[0].values())


def test_parent_is_the_only_cache_reader_and_writer(tmp_path, monkeypatch):
    """Every lookup and store of a fanned-out batch happens in the parent:
    the log is a file, so a call made in a forked worker would show up
    under the worker's pid."""
    log = tmp_path / "calls.log"
    for name in ("load", "store"):
        def logged(cache, *args, _real=getattr(DiskCache, name), _name=name):
            with open(log, "a") as handle:
                handle.write(f"{_name} {os.getpid()}\n")
            return _real(cache, *args)

        monkeypatch.setattr(DiskCache, name, logged)
    returned = _spy_on_pool(monkeypatch)
    cache_dir = tmp_path / "cache"
    WorkloadRunner(cache_dir=str(cache_dir), jobs=2).run_many(SWEEP)
    assert [set(outcomes) for outcomes in returned] == [set(SWEEP)]
    calls = collections.Counter(log.read_text().splitlines())
    parent = os.getpid()
    assert calls == {f"load {parent}": len(SWEEP), f"store {parent}": len(SWEEP)}
    assert len(list(cache_dir.iterdir())) == len(SWEEP)


_REAL_WORKER = runner_module._worker_execute


def _worker_dies_on_doduc_small(request):
    """A pool worker entry that kills its own process on one triple."""
    if (request.workload, request.dataset) == ("doduc", "small"):
        os._exit(1)
    return _REAL_WORKER(request)


def _refuse_to_start(*args, **kwargs):
    raise OSError("no process pool on this platform")


@pytest.mark.parametrize(
    "patch",
    [
        ("_worker_execute", _worker_dies_on_doduc_small),
        ("ProcessPoolExecutor", _refuse_to_start),
    ],
    ids=["killed-worker", "pool-cannot-start"],
)
def test_broken_pool_falls_back_to_the_serial_loop(tmp_path, monkeypatch, patch):
    serial = WorkloadRunner(cache_dir=str(tmp_path / "serial"))
    expected = _dicts(serial.run_many(SWEEP))
    monkeypatch.setattr(runner_module, *patch)
    fanout = WorkloadRunner(cache_dir=str(tmp_path / "fanout"), jobs=2)
    results = fanout.run_many(SWEEP, on_error="capture")
    assert not any(isinstance(result, RunFailure) for result in results)
    assert _dicts(results) == expected


def test_pool_submits_the_longest_run_first(tmp_path, monkeypatch):
    submitted = []

    class RecordingPool:
        """Records submissions in order and runs none of them, so the
        serial loop executes the whole batch."""

        def __init__(self, *args, **kwargs):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def submit(self, fn, request):
            submitted.append(request)
            future = Future()
            future.set_exception(RuntimeError("not run"))
            return future

    monkeypatch.setattr(runner_module, "ProcessPoolExecutor", RecordingPool)
    # Unbalanced: the longest run (doduc/ref) comes last in request order.
    batch = [
        RunRequest("spice2g6", "circuit2"),
        RunRequest("doduc", "tiny"),
        RunRequest("lfk", "default"),
        RunRequest("doduc", "ref"),
    ]
    runner = WorkloadRunner(cache_dir=str(tmp_path), jobs=2)
    results = runner.run_many(batch)
    assert submitted == [batch[3], batch[2], batch[1], batch[0]]
    assert [result.instructions for result in results] == [
        PAPER_INSTRUCTIONS[(request.workload, request.dataset)]
        for request in batch
    ]


def test_paper_instruction_counts_match_the_runs(runner):
    expected = {
        (workload.name, dataset): runner.run(workload.name, dataset).instructions
        for workload in all_workloads()
        for dataset in workload.dataset_names()
    }
    assert PAPER_INSTRUCTIONS == expected


def test_cold_run_many_looks_up_and_stores_once(tmp_path, monkeypatch):
    calls = collections.Counter()
    for name in ("load", "store"):
        def counted(cache, *args, _real=getattr(DiskCache, name), _name=name):
            calls[_name] += 1
            return _real(cache, *args)

        monkeypatch.setattr(DiskCache, name, counted)
    runner = WorkloadRunner(cache_dir=str(tmp_path / "batch"))
    runner.run_many([RunRequest("doduc", "tiny")])
    assert calls == {"load": 1, "store": 1}
    calls.clear()
    runner = WorkloadRunner(cache_dir=str(tmp_path / "single"))
    runner.run("doduc", "tiny")
    runner.run("doduc", "tiny")  # memoized: no second lookup
    assert calls == {"load": 1, "store": 1}


def test_run_and_run_all_go_through_run_many(tmp_path, monkeypatch):
    batches = []
    real_run_many = WorkloadRunner.run_many

    def spy(self, requests, *args, **kwargs):
        batches.append(list(requests))
        return real_run_many(self, requests, *args, **kwargs)

    monkeypatch.setattr(WorkloadRunner, "run_many", spy)
    runner = WorkloadRunner(cache_dir=str(tmp_path))
    result = runner.run("doduc", "tiny")
    assert batches == [[RunRequest("doduc", "tiny")]]
    batches.clear()
    runs = runner.run_all("doduc")
    assert batches == [
        [RunRequest("doduc", name) for name in ("tiny", "small", "ref")]
    ]
    assert list(runs) == ["tiny", "small", "ref"]
    assert runs["tiny"] is result


def test_run_of_a_bad_triple_names_it(tmp_path):
    runner = WorkloadRunner(cache_dir=str(tmp_path))
    with pytest.raises(ParallelExecutionError, match="doduc/nope"):
        runner.run("doduc", "nope")


def test_run_all_routes_through_batch_when_parallel(tmp_path):
    serial = WorkloadRunner(cache_dir=str(tmp_path / "serial"))
    fanout = WorkloadRunner(cache_dir=str(tmp_path / "fanout"), jobs=2)
    serial_runs = serial.run_all("doduc")
    fanout_runs = fanout.run_all("doduc")
    assert list(serial_runs) == list(fanout_runs)
    assert _dicts(serial_runs.values()) == _dicts(fanout_runs.values())


def test_dataset_requests_expands_configs():
    workload = get_workload("doduc")
    configs = (RunConfig(), RunConfig(dce=True))
    requests = dataset_requests([workload], configs=configs)
    assert len(requests) == 2 * len(workload.dataset_names())
    assert {request.config for request in requests} == set(configs)


class TestResolveJobs:
    def test_default_is_one(self):
        assert WorkloadRunner(cache_dir=None).jobs == 1

    def test_zero_means_all_cores(self):
        assert resolve_jobs(0) == (os.cpu_count() or 1)

    def test_invalid_values_raise(self):
        with pytest.raises(ValueError, match=">= 0"):
            resolve_jobs(-1)


def test_cli_jobs_output_matches_serial(capsys):
    from repro.experiments.cli import main

    assert main(["table3", "--no-cache", "--jobs", "2"]) == 0
    parallel_out = capsys.readouterr().out
    assert main(["table3", "--no-cache"]) == 0
    serial_out = capsys.readouterr().out
    assert parallel_out == serial_out
    assert "Table 3" in parallel_out
