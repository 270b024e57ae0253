"""Monitor specs are exactly the monitors they name.

A monitored ``RunRequest`` carries specs instead of monitor objects; the
runner builds them (``repro.core.specs.attach``) and answers with their
summaries.  Here each spec's summary on doduc/tiny is compared with the
summary of the same monitor attached by hand through ``run_program``.
"""
import pickle

import pytest

import repro.core.runner as runner_module
from repro.core.parallel import ParallelExecutionError, RunFailure, RunRequest
from repro.core.runner import WorkloadRunner
from repro.core.specs import RUN_LENGTHS, UNALIASED_COUNTERS, attach
from repro.dynamic import BimodalPredictor, build_model, default_zoo
from repro.prediction.base import ProfilePredictor
from repro.profiling.branch_profile import BranchProfile
from repro.vm.monitors import RunLengthMonitor
from tests.helpers import run_with_monitors

ZOO = tuple(model.name for model in default_zoo())
SPECS = ZOO + tuple(UNALIASED_COUNTERS) + (RUN_LENGTHS,)


def _by_hand(runner, spec, dataset="tiny"):
    """The summary of ``spec``'s monitor attached alone, by hand, to a
    run of doduc."""
    if spec == RUN_LENGTHS:
        plain = runner.run("doduc", dataset)
        monitor = RunLengthMonitor(
            ProfilePredictor(BranchProfile.from_run(plain), name="self")
        )
        run_with_monitors(runner, "doduc", dataset, [monitor])
        return monitor.stats()
    if spec in UNALIASED_COUNTERS:
        model = BimodalPredictor(table_size=None, num_bits=UNALIASED_COUNTERS[spec])
    else:
        family, size = spec.split("@")
        model = build_model(family, int(size))
    return model.score(run_with_monitors(runner, "doduc", dataset, [model]))


def test_the_default_zoo_has_12_names():
    assert len(ZOO) == len(set(ZOO)) == 12


@pytest.mark.parametrize("spec", SPECS)
def test_a_spec_summarizes_as_its_monitor_attached_by_hand(runner, spec):
    request = RunRequest("doduc", "tiny", monitors=(spec,))
    assert runner.run_many([request])[0] == (_by_hand(runner, spec),)


def test_specs_built_together_summarize_as_each_alone(runner):
    """One request carrying every spec: the zoo's bimodal and gshare ride
    their tournament's pass, and each summary is still its own."""
    (answer,) = runner.run_many([RunRequest("doduc", "tiny", monitors=SPECS)])
    assert answer == tuple(_by_hand(runner, spec) for spec in SPECS)


def test_the_default_zoo_specs_take_six_passes(runner):
    monitors, _ = attach(ZOO, runner.run("doduc", "tiny"))
    assert len(monitors) == 6


def test_specs_and_requests_survive_a_pickle_round_trip():
    request = RunRequest("doduc", "tiny", monitors=SPECS)
    for value in SPECS + (request,):
        copy = pickle.loads(pickle.dumps(value))
        assert copy == value and hash(copy) == hash(value)


@pytest.mark.parametrize("spec", ["bimodal@100", "perceptron@64", "3bit@inf", ""])
def test_an_unknown_spec_fails_its_request_alone(runner, spec):
    """An unknown spec fails the way an unknown dataset does: a
    ``RunFailure`` names it, and the rest of the batch completes."""
    bad_spec = RunRequest("doduc", "tiny", monitors=("2bit@inf", spec))
    bad_dataset = RunRequest("doduc", "nonexistent")
    good = RunRequest("doduc", "small", monitors=("2bit@inf",))
    answers = runner.run_many([bad_spec, good, bad_dataset], on_error="capture")
    assert [type(answer) for answer in answers[::2]] == [RunFailure] * 2
    assert f"unknown monitor spec {spec!r}" in answers[0].summary()
    assert "nonexistent" in answers[2].summary()
    assert answers[1] == (_by_hand(runner, "2bit@inf", "small"),)
    with pytest.raises(ParallelExecutionError, match="unknown monitor spec"):
        runner.run_many([bad_spec])


def test_a_failed_plain_run_fails_its_monitored_request_once(
    tmp_path, monkeypatch
):
    """The monitored request fails with its plain triple's error, and the
    plain triple, which the batch did not ask for, is not reported."""

    def broken(*args, **kwargs):
        raise RuntimeError("the plain run broke")

    monkeypatch.setattr(runner_module, "run_program", broken)
    request = RunRequest("doduc", "tiny", monitors=("2bit@inf",))
    with pytest.raises(ParallelExecutionError) as info:
        WorkloadRunner(cache_dir=str(tmp_path)).run_many([request])
    assert [failure.request for failure in info.value.failures] == [request]
    assert "the plain run broke" in info.value.failures[0].error


def test_the_monitored_requests_of_one_pair_execute_once():
    """Every monitored request of one triple in a batch rides one
    execution carrying the union of their specs; each request still gets
    its own specs' summaries, in its own order, equal to its answer run
    alone on a fresh runner."""
    requests = [
        RunRequest("doduc", "small", monitors=(RUN_LENGTHS,)),
        RunRequest("doduc", "small", monitors=ZOO),
        RunRequest("doduc", "small", monitors=("2bit@inf", "1bit@inf")),
        RunRequest("doduc", "small", monitors=("1bit@inf", ZOO[0])),
    ]
    runner = WorkloadRunner(cache_dir=None)
    runner.run("doduc", "small")
    answers = runner.run_many(requests)
    assert runner.executions == 2
    for request, answer in zip(requests, answers):
        assert len(answer) == len(request.monitors)
        assert answer == WorkloadRunner(cache_dir=None).run_many([request])[0]


def test_a_monitored_fault_fails_every_request_of_its_pair(monkeypatch):
    """A fault in the shared execution fails each request that rode it,
    once; an unknown spec on the same triple fails alone with its own
    error."""
    real = runner_module.run_program

    def faulty(*args, **kwargs):
        if kwargs.get("monitors"):
            raise RuntimeError("the monitored run broke")
        return real(*args, **kwargs)

    monkeypatch.setattr(runner_module, "run_program", faulty)
    requests = [
        RunRequest("doduc", "tiny", monitors=("2bit@inf",)),
        RunRequest("doduc", "tiny", monitors=("nonesuch@1",)),
        RunRequest("doduc", "tiny", monitors=(RUN_LENGTHS,)),
    ]
    runner = WorkloadRunner(cache_dir=None)
    answers = runner.run_many(requests, on_error="capture")
    assert all(isinstance(answer, RunFailure) for answer in answers)
    assert "unknown monitor spec" in answers[1].error
    for answer in answers[::2]:
        assert "the monitored run broke" in answer.error
    assert runner.executions == 2
