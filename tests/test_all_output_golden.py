"""Golden of every byte ``repro-experiments all`` prints, and of the
``export`` document.

``tests/goldens/all.txt`` is the whole standard output of
``repro-experiments all --no-cache``, and ``tests/goldens/export.sha256``
the sha256 of the JSON ``repro-experiments export`` writes.  Both come
from the command line; here every experiment runs once on the session
runner and both outputs are rebuilt from its results, so a change that
moves any printed digit or exported float fails here.  After a
deliberate change, regenerate both files with the command line and
review the diff of ``all.txt``.
"""
import hashlib
import os

from repro.experiments import EXPERIMENTS
from repro.experiments.export import document_of, dumps

GOLDENS = os.path.join(os.path.dirname(__file__), "goldens")


def _read(name):
    with open(os.path.join(GOLDENS, name)) as handle:
        return handle.read()


def test_all_and_export_match_golden(runner):
    results = {name: module.run(runner) for name, module in EXPERIMENTS.items()}
    stdout = "".join(f"{result.format_text()}\n\n" for result in results.values())
    assert stdout == _read("all.txt")
    exported = dumps(document_of(results)).encode()
    assert hashlib.sha256(exported).hexdigest() == _read("export.sha256").strip()
