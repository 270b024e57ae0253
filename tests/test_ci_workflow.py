"""The CI workflow must stay parseable and keep its jobs wired up."""
import os
import re

import pytest

yaml = pytest.importorskip("yaml")

WORKFLOW = os.path.join(
    os.path.dirname(__file__), "..", ".github", "workflows", "ci.yml"
)


@pytest.fixture(scope="module")
def workflow():
    with open(WORKFLOW) as handle:
        return yaml.safe_load(handle)


def test_workflow_parses_and_triggers(workflow):
    # YAML 1.1 may load a bare `on:` key as the boolean True; accept both.
    triggers = workflow.get("on", workflow.get(True))
    assert "push" in triggers
    assert "pull_request" in triggers


def test_workflow_has_all_jobs(workflow):
    assert {
        "tests", "lint", "benchmark-smoke", "serve-smoke", "examples"
    } <= set(workflow["jobs"])


def test_test_matrix_covers_supported_pythons(workflow):
    matrix = workflow["jobs"]["tests"]["strategy"]["matrix"]["python-version"]
    assert {"3.9", "3.11", "3.13"} <= {str(version) for version in matrix}


def _run_lines(job):
    return [step.get("run", "") for step in job["steps"]]


def test_jobs_run_the_advertised_commands(workflow):
    jobs = workflow["jobs"]
    assert any("pytest -x -q" in line for line in _run_lines(jobs["tests"]))
    assert any("ruff check" in line for line in _run_lines(jobs["lint"]))
    assert any(
        "mypy --strict" in line for line in _run_lines(jobs["lint"])
    ), "the lint job must type-check the IR and analysis layers"
    assert any(
        "pytest benchmarks" in line
        for line in _run_lines(jobs["benchmark-smoke"])
    )
    assert any(
        "benchmarks/bench_vm.py" in line
        for line in _run_lines(jobs["benchmark-smoke"])
    ), "the smoke job must enforce the VM fast-engine speedup floor"
    assert any(
        "perfbench/run.py --workload monitored-warm" in line
        and '"failed"' in line
        for line in _run_lines(jobs["benchmark-smoke"])
    ), "the smoke job must run the traced monitored-warm benchmark"
    serve_lines = _run_lines(jobs["serve-smoke"])
    assert any(
        "repro-serve serve" in line for line in serve_lines
    ), "the serve-smoke job must start a live aggregation server"
    assert sum(
        "repro-serve serve" in line and "--db" in line for line in serve_lines
    ) >= 2, (
        "the serve-smoke job must persist with --db and restart a second "
        "server on the same store"
    )
    for line in serve_lines:
        if "repro-serve serve" in line:
            wait = line.split("repro-serve serve", 1)[1].split("SERVER=")[0]
            assert "[ ! -s ready.txt ]" in wait and "exit 1" in wait, (
                "each serve-smoke server start must fail fast when "
                "ready.txt is still empty after the wait loop"
            )
    assert any(
        "upload-sweep" in line and "predict" in line for line in serve_lines
    ), "the serve-smoke job must round-trip upload-sweep and predict"
    assert any(
        "--verify-offline" in line for line in serve_lines
    ), "served predictions must be checked byte-for-byte against offline"
    assert any(
        "benchmarks/bench_serve.py" in line for line in serve_lines
    ), "the serve-smoke job must enforce the upload throughput floor"
    assert any("examples/*.py" in line for line in _run_lines(jobs["examples"]))
    assert any(
        "repro-mf lint" in line for line in _run_lines(jobs["examples"])
    ), "the examples job must IR-lint the bundled programs"


def test_property_files_run_under_a_fresh_printed_seed(workflow):
    """Tier-1 must pass on any Hypothesis seed, so CI draws a new one each
    run and prints it before the property files run under it."""
    steps = [
        line for line in _run_lines(workflow["jobs"]["tests"])
        if "--hypothesis-seed" in line
    ]
    assert len(steps) == 1
    step = steps[0]
    assert '--hypothesis-seed="${SEED}"' in step
    assert 'grep -l "^@given" tests/*.py' in step, (
        "the step must run every tests/ file that uses @given"
    )
    assert 0 <= step.index('echo "SEED=${SEED}"') < step.index("pytest"), (
        "the seed must be printed before the tests run"
    )


def test_dynamic_equivalence_runs_each_side_on_its_own_cache(workflow):
    """A shared cache would let the --jobs 2 run see only hits and never
    start a pool, so each side needs its own empty cache directory."""
    commands = [
        line
        for run in _run_lines(workflow["jobs"]["examples"])
        for line in run.splitlines()
        if "repro-experiments dynamic" in line
    ]
    assert len(commands) == 2
    assert ["--jobs 2" in line for line in commands] == [False, True]
    caches = [re.search(r"REPRO_CACHE_DIR=(\S+)", line) for line in commands]
    assert all(caches), "each side must set its own REPRO_CACHE_DIR"
    assert caches[0].group(1) != caches[1].group(1)


def test_setup_python_uses_pip_caching(workflow):
    for name, job in workflow["jobs"].items():
        setup_steps = [
            step for step in job["steps"]
            if "setup-python" in str(step.get("uses", ""))
        ]
        assert setup_steps, f"job {name} never sets up python"
        for step in setup_steps:
            assert step["with"].get("cache") == "pip", name
