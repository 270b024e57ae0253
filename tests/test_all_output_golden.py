"""Golden of every byte ``repro-experiments`` prints, and of the
``export`` document.

``tests/goldens/all.txt`` is the whole standard output of ``all``,
``tests/goldens/charts.txt`` that of the four ``--chart`` renders, and
``tests/goldens/export.sha256`` the sha256 of the JSON ``export`` writes.
All three come from the command line; here the sweep the command line
runs (``run_experiments``: one plan, one ``run_many``) runs once on the
session runner and each output is rebuilt from those results, so a
change that moves any printed digit or exported float fails here.  Each
experiment's section of a text golden is its own test, named after the
golden and the experiment (``test_section_matches_golden[all-table1]``),
so a failure names the section that moved; the whole-file checks catch
what lies outside every section.

After a deliberate change, regenerate the three files from the
repository root and review the diff of the two text goldens::

    PYTHONPATH=src python -m repro.experiments.cli all --no-cache \\
        > tests/goldens/all.txt
    for name in dynamic figure1 figure2 figure3; do
        PYTHONPATH=src python -m repro.experiments.cli $name --chart --no-cache
    done > tests/goldens/charts.txt
    PYTHONPATH=src python -m repro.experiments.cli export --no-cache \\
        --out results.json
    sha256sum results.json | cut -d' ' -f1 > tests/goldens/export.sha256
"""
import concurrent.futures
import contextlib
import difflib
import hashlib
import io
import os

import pytest

import repro.core.runner as runner_module
from repro.core.runner import WorkloadRunner
from repro.experiments import EXPERIMENTS, cli, plan, run_experiments
from repro.experiments.export import document_of, dumps, export_json

GOLDENS = os.path.join(os.path.dirname(__file__), "goldens")
# The experiments the CLI renders with ``--chart``, in ``charts.txt`` order.
CHARTS = ("dynamic", "figure1", "figure2", "figure3")


def _read(name):
    with open(os.path.join(GOLDENS, name)) as handle:
        return handle.read()


@pytest.fixture(scope="module")
def sweep(runner):
    """Every experiment's result, and how many runs building them after
    the plan's ``run_many`` executed."""
    built = run_experiments(runner)
    executed = []
    with pytest.MonkeyPatch.context() as patch:
        real = runner_module.run_program
        patch.setattr(
            runner_module,
            "run_program",
            lambda *args, **kwargs: executed.append(args) or real(*args, **kwargs),
        )
        results = dict(built)
    return results, len(executed)


@pytest.fixture(scope="module")
def results(sweep):
    return sweep[0]


def test_the_plan_holds_every_run_the_experiments_read(sweep):
    """Once the plan's one ``run_many`` has returned, building every
    result executes no run: each experiment reads only its requests."""
    assert sweep[1] == 0


def test_all_runs_its_monitored_requests_as_23_executions(monkeypatch):
    """The plan's 42 monitored requests cover 23 (workload, dataset)
    pairs, and each pair executes once.  Execution is stubbed: a
    monitored execution answers with its own specs, so each request's
    answer shows which of the union's summaries it was given."""
    executed = []

    def stub(runner, request):
        executed.append(request)
        return request.monitors or "a plain result", None

    monkeypatch.setattr(runner_module, "_execute_captured", stub)
    requests = plan(EXPERIMENTS)
    answers = WorkloadRunner(cache_dir=None).run_many(requests)
    monitored = [
        (request, answer)
        for request, answer in zip(requests, answers)
        if request.monitors
    ]
    assert len(monitored) == 42
    assert sum(1 for request in executed if request.monitors) == 23
    assert all(answer == request.monitors for request, answer in monitored)


def _sections(golden, rendered):
    """Cut ``golden`` into one piece per rendered section, in order.

    A piece starts where the golden has that section's first line after a
    blank line; if that line moved, where the previous section would end.
    """
    starts = [0]
    texts = list(rendered.values())
    for previous, text in zip(texts, texts[1:]):
        head = "\n\n" + text.split("\n", 1)[0] + "\n"
        at = golden.find(head, starts[-1])
        starts.append(at + 2 if at >= 0 else starts[-1] + len(previous))
    ends = starts[1:] + [len(golden)]
    return {
        name: golden[start:end]
        for name, start, end in zip(rendered, starts, ends)
    }


@pytest.fixture(scope="module")
def rendered(results):
    """Each text golden's sections, rendered from the shared results."""
    return {
        "all.txt": {
            name: f"{result.format_text()}\n\n" for name, result in results.items()
        },
        "charts.txt": {
            name: f"{results[name].format_chart()}\n\n" for name in CHARTS
        },
    }


@pytest.mark.parametrize(
    "golden_name, section",
    [("all.txt", name) for name in EXPERIMENTS]
    + [("charts.txt", name) for name in CHARTS],
    ids=lambda value: value.removesuffix(".txt"),
)
def test_section_matches_golden(rendered, golden_name, section):
    sections = rendered[golden_name]
    golden = _sections(_read(golden_name), sections)[section]
    if golden != sections[section]:
        diff = difflib.unified_diff(
            golden.splitlines(), sections[section].splitlines(),
            f"{golden_name} [{section}]", f"now [{section}]", n=1, lineterm="",
        )
        pytest.fail(
            f"{golden_name}: moved in {section}\n" + "\n".join(list(diff)[:40]),
            pytrace=False,
        )


def test_charts_are_every_chart(results):
    charted = tuple(
        name for name, result in results.items() if hasattr(result, "format_chart")
    )
    assert charted == CHARTS


def test_all_matches_golden(rendered):
    assert "".join(rendered["all.txt"].values()) == _read("all.txt")


def test_charts_match_golden(rendered):
    assert "".join(rendered["charts.txt"].values()) == _read("charts.txt")


def test_export_matches_golden(results):
    exported = dumps(document_of(results)).encode()
    assert hashlib.sha256(exported).hexdigest() == _read("export.sha256").strip()


def test_export_json_writes_the_document(results, runner, monkeypatch, tmp_path):
    """``export_json`` writes ``dumps`` of the experiments' document, as
    the golden hashes it.  Each experiment returns its shared result, so
    none runs a second time."""
    for name, module in EXPERIMENTS.items():
        monkeypatch.setattr(module, "run", lambda _, result=results[name]: result)
    path = tmp_path / "results.json"
    document = export_json(str(path), runner)
    assert document == document_of(results)
    assert path.read_bytes() == dumps(document_of(results)).encode()


class _StandInPool:
    """A ``ProcessPoolExecutor`` that answers each miss from the session
    runner in this process, and counts how many pools were started."""

    started = 0
    answers = None

    def __init__(self, max_workers, initializer):
        type(self).started += 1

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def submit(self, execute, request):
        future = concurrent.futures.Future()
        future.set_result((self.answers.run_many([request])[0], None))
        return future


def test_all_with_jobs_starts_one_pool(results, runner, monkeypatch):
    """A cold ``all --jobs 2`` plans every run and starts exactly one
    pool for the misses.  The pool's answers come from the session
    runner, which the sweep above filled, and so do the monitored runs,
    so this costs no simulation; stdout is still the whole golden."""
    monkeypatch.setattr(_StandInPool, "started", 0)
    monkeypatch.setattr(_StandInPool, "answers", runner)
    monkeypatch.setattr(runner_module, "ProcessPoolExecutor", _StandInPool)
    planned = plan(EXPERIMENTS)

    def execute(self, request):
        """A pair's monitored execution carries the union of its planned
        requests' specs; answer each spec from the planned request that
        the session runner memoized with it."""
        if not request.monitors:
            return runner.run_many([request])[0]
        summaries = {}
        for other in planned:
            if other.monitors and other.plain() == request.plain():
                summaries.update(zip(other.monitors, runner.run_many([other])[0]))
        return tuple(summaries[spec] for spec in request.monitors)

    monkeypatch.setattr(runner_module.WorkloadRunner, "_execute", execute)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert cli.main(["all", "--no-cache", "--jobs", "2"]) == 0
    assert _StandInPool.started == 1
    assert stdout.getvalue() == _read("all.txt")
