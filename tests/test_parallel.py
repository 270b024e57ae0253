"""Parallel runner tests: equivalence, error isolation, jobs resolution."""
import collections
import os

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
        assert request.key() in runner._runs


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


def test_disabled_disk_cache_falls_back_to_in_process():
    runner = WorkloadRunner(cache_dir=None, jobs=2)
    results = runner.run_many(SWEEP[:2])
    assert results[0].instructions > 0
    assert results[1].instructions > 0


_REAL_WORKER = runner_module._worker_execute


def _worker_dies_on_doduc_small(key, digest):
    """A pool worker entry that kills its own process on one triple."""
    if key[:2] == ("doduc", "small"):
        os._exit(1)
    return _REAL_WORKER(key, digest)


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


def test_cold_run_many_looks_up_and_stores_once(tmp_path, monkeypatch):
    calls = collections.Counter()
    for name in ("load", "store"):
        def counted(cache, *args, _real=getattr(DiskCache, name), _name=name):
            calls[_name] += 1
            return _real(cache, *args)

        monkeypatch.setattr(DiskCache, name, counted)
    runner = WorkloadRunner(cache_dir=str(tmp_path))
    runner.run_many([RunRequest("doduc", "tiny")])
    assert calls == {"load": 1, "store": 1}


def test_run_all_routes_through_batch_when_parallel(tmp_path):
    serial = WorkloadRunner(cache_dir=str(tmp_path / "serial"))
    fanout = WorkloadRunner(cache_dir=str(tmp_path / "fanout"), jobs=2)
    serial_runs = serial.run_all("doduc")
    fanout_runs = fanout.run_all("doduc")
    assert list(serial_runs) == list(fanout_runs)
    assert _dicts(serial_runs.values()) == _dicts(fanout_runs.values())


def test_dataset_requests_expands_configs(runner):
    workload = runner.workload("doduc")
    configs = (RunConfig(), RunConfig(dce=True))
    requests = dataset_requests([workload], configs=configs)
    assert len(requests) == 2 * len(workload.dataset_names())
    assert {request.config for request in requests} == set(configs)


class TestResolveJobs:
    def test_default_is_one(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(None) == 1

    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert resolve_jobs(3) == 3

    def test_env_var_parsed(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert resolve_jobs(None) == 4
        assert WorkloadRunner(cache_dir=None).jobs == 4

    def test_blank_env_var_means_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "  ")
        assert resolve_jobs(None) == 1

    def test_zero_means_all_cores(self):
        assert resolve_jobs(0) == (os.cpu_count() or 1)

    def test_invalid_values_raise(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "two")
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            resolve_jobs(None)
        with pytest.raises(ValueError, match=">= 0"):
            resolve_jobs(-1)


def test_cli_jobs_output_matches_serial(tmp_path, capsys, monkeypatch):
    from repro.experiments.cli import main

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cli-cache"))
    assert main(["table3", "--jobs", "2"]) == 0
    parallel_out = capsys.readouterr().out
    assert main(["table3"]) == 0
    serial_out = capsys.readouterr().out
    assert parallel_out == serial_out
    assert "Table 3" in parallel_out
