"""The CI workflow must stay parseable and keep its jobs wired up."""
import os
import re

import pytest

yaml = pytest.importorskip("yaml")

WORKFLOW = os.path.join(
    os.path.dirname(__file__), "..", ".github", "workflows", "ci.yml"
)
BENCH_SERVE = os.path.join(
    os.path.dirname(__file__), "..", "benchmarks", "bench_serve.py"
)
BENCH_TOOLCHAIN = os.path.join(
    os.path.dirname(__file__), "..", "benchmarks", "bench_toolchain.py"
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
    assert any(
        "perfbench/run.py --workload cold-sweep" in line
        and "--trace 1" in line
        and '"failed"' in line
        and '"opt.cap_hits"' in line
        for line in _run_lines(jobs["benchmark-smoke"])
    ), (
        "the smoke job must run the traced cold-sweep benchmark and fail "
        "on a wrong table, a failed op or an optimizer cap hit"
    )
    assert any(
        "perfbench/run.py --workload serve-feedback" in line
        and '"correct"' in line
        and '"failed"' in line
        for line in _run_lines(jobs["benchmark-smoke"])
    ), (
        "the smoke job must run serve-feedback and fail unless its served "
        "predictions match offline and no op failed"
    )
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
        "--workloads doduc,fpppp" in line
        and 'grep -qx "upload-sweep: 5 uploads, server epoch 5"' in line
        and "exit 1" in line.split("upload-sweep: 5 uploads", 1)[1]
        for line in serve_lines
    ), (
        "the serve-smoke job must fail unless upload-sweep uploads the 3 + 2 "
        "datasets of doduc and fpppp exactly once each"
    )
    assert any(
        "--verify-offline" in line for line in serve_lines
    ), "served predictions must be checked byte-for-byte against offline"
    serve_floors = [
        line for line in serve_lines if "benchmarks/bench_serve.py" in line
    ]
    assert serve_floors and all(
        "-k smoke" in line for line in serve_floors
    ), "the serve-smoke job must enforce the upload and predict throughput floors"
    assert any("examples/*.py" in line for line in _run_lines(jobs["examples"]))
    assert any(
        "repro-mf lint" in line for line in _run_lines(jobs["examples"])
    ), "the examples job must IR-lint the bundled programs"


def test_serve_smoke_selects_an_upload_and_a_predict_floor():
    """The serve-smoke job's ``-k smoke`` must pick up both floors, so a
    slow profile key fails CI even when uploads stay fast."""
    with open(BENCH_SERVE) as handle:
        source = handle.read()
    smoke_tests = re.findall(r"^def (test_smoke_\w+)\(", source, re.M)
    assert "test_smoke_serve_throughput" in smoke_tests
    assert "test_smoke_serve_predict_throughput" in smoke_tests
    assert "rate >= SMOKE_FLOOR" in source
    assert "rate >= PREDICT_SMOKE_FLOOR" in source


def test_benchmark_smoke_runs_the_compile_floor(workflow):
    """The benchmark-smoke job's ``pytest benchmarks ... -k smoke`` step
    must pick up the compile benchmark, so a slower compile layer or a
    change in the optimizer's pass calls fails CI."""
    assert any(
        "pytest benchmarks " in line and "-k smoke" in line
        for line in _run_lines(workflow["jobs"]["benchmark-smoke"])
    )
    with open(BENCH_TOOLCHAIN) as handle:
        source = handle.read()
    smoke_tests = re.findall(r"^def (test_smoke_\w+)\(", source, re.M)
    assert "test_smoke_compile_all_workloads" in smoke_tests
    assert "<= COMPILE_CEILING_S" in source
    assert "calls == PASS_CALLS" in source


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


def test_cacheless_all_runs_serial_and_jobs2_and_compares(workflow):
    """Workers return their results through the pool, so --no-cache still
    fans out; CI checks that batch against the serial one and against
    the whole-output golden."""
    steps = [
        run for run in _run_lines(workflow["jobs"]["examples"])
        if "repro-experiments all --no-cache" in run
    ]
    assert len(steps) == 1
    commands = [
        line for line in steps[0].splitlines()
        if "repro-experiments all" in line
    ]
    assert len(commands) == 2
    assert all("--no-cache" in line for line in commands)
    assert ["--jobs 2" in line for line in commands] == [False, True]
    outputs = [line.split(">")[1].strip() for line in commands]
    assert f"cmp {outputs[0]} {outputs[1]}" in steps[0]
    assert f"cmp {outputs[1]} tests/goldens/all.txt" in steps[0]


def test_warm_all_is_compared_with_the_golden(workflow):
    """The second of two ``all`` runs on one cache loads every plain run
    from disk, so the JSON round trip of each ``RunResult`` feeds every
    table; its stdout must still be the golden."""
    steps = [
        run for run in _run_lines(workflow["jobs"]["examples"])
        if "repro-experiments all" in run and "--no-cache" not in run
    ]
    assert len(steps) == 1
    commands = [
        line for line in steps[0].splitlines()
        if "repro-experiments all" in line
    ]
    assert len(commands) == 2
    assert not any("--jobs" in line for line in commands)
    caches = [re.search(r"REPRO_CACHE_DIR=(\S+)", line) for line in commands]
    assert all(caches), "both runs must name the cache directory"
    assert caches[0].group(1) == caches[1].group(1)
    warm = commands[1].split(">")[1].strip()
    assert f"cmp {warm} tests/goldens/all.txt" in steps[0]


def test_overview_and_informal_run_alone_serial_and_jobs2_and_compare(
    workflow,
):
    """Run on their own, overview and informal each plan only their own
    requests, so the pool sees a different set of misses than in
    ``all``, whose one plan covers every experiment."""
    found = [
        step for step in workflow["jobs"]["examples"]["steps"]
        if "for experiment in overview informal" in step.get("run", "")
    ]
    assert len(found) == 1
    assert "plan is its own requests" in found[0]["name"]
    assert "fill the memo" not in found[0]["name"]
    steps = [found[0]["run"]]
    commands = [
        line.strip() for line in steps[0].splitlines()
        if "repro-experiments" in line
    ]
    assert len(commands) == 2
    assert all('"${experiment}" --no-cache' in line for line in commands)
    assert ["--jobs 2" in line for line in commands] == [False, True]
    outputs = [line.split(">")[1].strip() for line in commands]
    assert f"cmp {outputs[0]} {outputs[1]}" in steps[0]


def test_setup_python_uses_pip_caching(workflow):
    for name, job in workflow["jobs"].items():
        setup_steps = [
            step for step in job["steps"]
            if "setup-python" in str(step.get("uses", ""))
        ]
        assert setup_steps, f"job {name} never sets up python"
        for step in setup_steps:
            assert step["with"].get("cache") == "pip", name
