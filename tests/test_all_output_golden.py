"""Golden of every byte ``repro-experiments`` prints, and of the
``export`` document.

``tests/goldens/all.txt`` is the whole standard output of ``all``,
``tests/goldens/charts.txt`` that of the four ``--chart`` renders, and
``tests/goldens/export.sha256`` the sha256 of the JSON ``export`` writes.
All three come from the command line; here every experiment runs once on
the session runner and each output is rebuilt from those results, so a
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
import difflib
import hashlib
import os

import pytest

from repro.experiments import EXPERIMENTS
from repro.experiments.export import document_of, dumps, export_json

GOLDENS = os.path.join(os.path.dirname(__file__), "goldens")
# The experiments the CLI renders with ``--chart``, in ``charts.txt`` order.
CHARTS = ("dynamic", "figure1", "figure2", "figure3")


def _read(name):
    with open(os.path.join(GOLDENS, name)) as handle:
        return handle.read()


@pytest.fixture(scope="module")
def results(runner):
    return {name: module.run(runner) for name, module in EXPERIMENTS.items()}


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
