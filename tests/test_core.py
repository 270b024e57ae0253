"""Core runner and cross-dataset experiment machinery tests."""
import hashlib
import os
import shutil

import pytest

import repro.core.cache as cache_module
from repro.core.cache import (
    DiskCache,
    run_digest,
    run_result_from_dict,
    run_result_to_dict,
)
from repro.core.experiment import CrossDatasetExperiment, fraction_of_bound
from repro.core.parallel import RunRequest
from repro.core.runner import WorkloadRunner
from repro.profiling.branch_profile import BranchProfile
from repro.workloads.registry import get_workload


def test_run_results_are_memoized_in_process(runner):
    first = runner.run("lfk", "default")
    second = runner.run("lfk", "default")
    assert first is second


def test_disk_cache_round_trip(tmp_path, runner):
    result = runner.run("lfk", "default")
    cache = DiskCache(str(tmp_path))
    cache.store("abc", result)
    loaded = cache.load("abc")
    assert loaded is not None
    assert loaded.instructions == result.instructions
    assert loaded.branch_exec == result.branch_exec
    assert loaded.branch_table == result.branch_table
    assert loaded.output == result.output


def test_disk_cache_miss_and_corrupt_entry(tmp_path):
    cache = DiskCache(str(tmp_path))
    assert cache.load("missing") is None
    (tmp_path / "bad.json").write_text("{not json")
    assert cache.load("bad") is None


def test_disk_cache_disabled():
    cache = DiskCache(None)
    assert cache.load("x") is None
    cache.store("x", None)  # no-op, must not raise


def test_run_result_serialization_is_lossless(runner):
    result = runner.run("doduc", "tiny")
    restored = run_result_from_dict(run_result_to_dict(result))
    assert restored.program == result.program
    assert restored.instructions == result.instructions
    assert restored.branch_taken == result.branch_taken
    assert restored.events == result.events
    assert restored.exit_code == result.exit_code


def test_run_config_tag_is_injective_over_flags():
    # run_digest keys on tag() while in-memory memoization keys on the
    # dataclass itself; injectivity keeps the two keyspaces aligned.
    import itertools

    from repro.core.runner import RunConfig

    configs = [
        RunConfig(dce=dce, inline=inline, if_conversion=ifconv)
        for dce, inline, ifconv in itertools.product((False, True), repeat=3)
    ]
    assert len({config.tag() for config in configs}) == len(configs)
    assert len(set(configs)) == len(configs)


def test_disk_cache_hit_equals_fresh_execution(tmp_path):
    first = WorkloadRunner(cache_dir=str(tmp_path)).run("doduc", "tiny")
    fresh = WorkloadRunner(cache_dir=None).run("doduc", "tiny")
    cached = WorkloadRunner(cache_dir=str(tmp_path)).run("doduc", "tiny")
    assert run_result_to_dict(cached) == run_result_to_dict(first)
    assert run_result_to_dict(cached) == run_result_to_dict(fresh)


def test_run_digest_sensitivity():
    base = run_digest("src", b"input", "dce=False")
    assert run_digest("src2", b"input", "dce=False") != base
    assert run_digest("src", b"input2", "dce=False") != base
    assert run_digest("src", b"input", "dce=True") != base
    assert run_digest("src", b"input", "dce=False") == base


def test_run_digest_keys_on_the_code_fingerprint(monkeypatch):
    """An edit to the compiler or the VM changes the fingerprint, and with
    it every digest, so a warm cache misses instead of serving counters
    the current code would not produce."""
    base = run_digest("src", b"input", "dce=False")
    monkeypatch.setattr(cache_module, "code_fingerprint", lambda: "edited")
    assert run_digest("src", b"input", "dce=False") != base


def test_run_digest_starts_with_the_version_prefix():
    """The prefix is 8 hex digits of a sha256 over the cache format
    version and the code fingerprint."""
    digest = run_digest("src", b"input", "dce=False")
    assert len(digest) == 32
    key = f"v{cache_module.CACHE_FORMAT_VERSION}:{cache_module.code_fingerprint()}"
    prefix = hashlib.sha256(key.encode()).hexdigest()[: cache_module.PREFIX_DIGITS]
    assert cache_module.version_prefix() == prefix
    assert digest.startswith(prefix)


def test_disk_cache_prunes_entries_of_other_code_versions(tmp_path):
    """Opening a cache directory deletes the entries another compiler or
    VM version wrote, and leaves everything not named like an entry."""
    width = cache_module.PREFIX_DIGITS
    prefix = cache_module.version_prefix()
    other = "f" * width if prefix.startswith("0") else "0" * width
    current = run_digest("src", b"input", "dce=False") + ".json"
    stale = other + current[width:]
    v5_style = other[:4] + "0123456789abcdef0123456789ab.json"
    unrelated = "notes.txt"
    for name in (current, stale, v5_style, unrelated):
        (tmp_path / name).write_text("{}")
    DiskCache(str(tmp_path))
    assert sorted(os.listdir(tmp_path)) == sorted([current, unrelated])


def test_disk_cache_prunes_entries_of_another_format_version(
    tmp_path, monkeypatch
):
    """A bump of ``CACHE_FORMAT_VERSION`` alone, with the same code
    fingerprint, moves the prefix, so the old format's entries are
    deleted."""
    old = run_digest("src", b"input", "dce=False") + ".json"
    (tmp_path / old).write_text("{}")
    DiskCache(str(tmp_path))
    assert os.listdir(tmp_path) == [old]
    monkeypatch.setattr(
        cache_module, "CACHE_FORMAT_VERSION", cache_module.CACHE_FORMAT_VERSION + 1
    )
    new = run_digest("src", b"input", "dce=False") + ".json"
    assert new[: cache_module.PREFIX_DIGITS] != old[: cache_module.PREFIX_DIGITS]
    (tmp_path / new).write_text("{}")
    DiskCache(str(tmp_path))
    assert os.listdir(tmp_path) == [new]


def test_disk_cache_prune_ignores_an_entry_already_gone(tmp_path, monkeypatch):
    """Another process opening the same directory may delete a stale entry
    between this one's listing and its removal."""
    stale = "0" * 32 + ".json"
    if cache_module.version_prefix() == "0" * 8:
        stale = "f" * 32 + ".json"
    listdir = os.listdir
    monkeypatch.setattr(
        cache_module.os, "listdir", lambda path: listdir(path) + [stale]
    )
    DiskCache(str(tmp_path))  # must not raise FileNotFoundError


def test_code_fingerprint_hashes_every_compiler_and_vm_module():
    package = os.path.dirname(os.path.abspath(cache_module.__file__))
    package = os.path.dirname(package)
    expected = ["compiler.py"] + [
        os.path.relpath(os.path.join(root, name), package).replace(os.sep, "/")
        for sub in ("lang", "ir", "opt", "analysis", "vm")
        for root, _dirs, files in os.walk(os.path.join(package, sub))
        for name in files
        if name.endswith(".py")
    ]
    files = cache_module.fingerprinted_files()
    assert files == sorted(expected)
    assert {"opt/cse.py", "vm/engine.py", "ir/lower.py"} <= set(files)
    assert len(cache_module.code_fingerprint()) == 64


def test_code_fingerprint_changes_with_any_fingerprinted_byte(
    tmp_path, monkeypatch
):
    """Recompute the fingerprint over a copy of the hashed files, before
    and after appending a comment to one of them."""
    package = os.path.dirname(os.path.dirname(cache_module.__file__))
    for path in cache_module.fingerprinted_files():
        copy = tmp_path / path
        copy.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(os.path.join(package, path), copy)
    monkeypatch.setattr(cache_module, "_PACKAGE_DIR", str(tmp_path))
    fingerprint = cache_module.code_fingerprint.__wrapped__
    before = fingerprint()
    assert before == cache_module.code_fingerprint()
    with open(tmp_path / "opt" / "cse.py", "a") as handle:
        handle.write("# edited\n")
    assert fingerprint() != before


def test_run_digest_is_injective_across_field_boundaries():
    # Mirrors the RunConfig.tag() injectivity test: without length
    # prefixes, content containing the old '|' separator could shift
    # across field boundaries and serve the wrong cached run.
    assert run_digest("x|y", b"z", "cfg") != run_digest("x", b"y|z", "cfg")
    assert run_digest("s", b"in", "c|") != run_digest("|s", b"in", "c")
    assert run_digest("c|", b"", "") != run_digest("c", b"", "|")
    assert run_digest("", b"a", "b") != run_digest("b", b"a", "")
    # Digits migrating between a field and its length prefix must differ.
    assert run_digest("1", b"", "") != run_digest("", b"1", "")


def test_disk_cache_store_is_safe_under_concurrent_writers(tmp_path, runner):
    # Two parallel workers storing the same digest used to share one
    # "<digest>.json.tmp" path, interleaving writes and racing the final
    # rename; per-writer temp files make every store atomic.
    import json
    import threading

    result = runner.run("lfk", "default")
    cache = DiskCache(str(tmp_path))
    errors = []

    def hammer():
        try:
            for _ in range(50):
                cache.store("shared", result)
        except Exception as exc:  # pragma: no cover - the regression
            errors.append(exc)

    threads = [threading.Thread(target=hammer) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert not errors
    loaded = cache.load("shared")
    assert loaded is not None
    assert run_result_to_dict(loaded) == run_result_to_dict(result)
    # The entry parses as clean JSON (no interleaved writes) and no
    # orphaned temp files survive.
    with open(tmp_path / "shared.json") as handle:
        json.load(handle)
    assert [p.name for p in tmp_path.glob("*.tmp")] == []


def test_disk_cache_used_across_runner_instances(tmp_path):
    first = WorkloadRunner(cache_dir=str(tmp_path))
    result = first.run("lfk", "default")
    # A fresh runner with the same cache dir must load, not re-simulate.
    second = WorkloadRunner(cache_dir=str(tmp_path))
    from repro.core.runner import RunConfig

    digest = run_digest(
        get_workload("lfk").source,
        get_workload("lfk").dataset("default").data,
        RunConfig().tag(),
    )
    assert second._disk.load(digest) is not None
    reloaded = second.run("lfk", "default")
    assert reloaded.instructions == result.instructions


def test_runner_profile_matches_run(runner):
    result = runner.run("doduc", "tiny")
    profile = BranchProfile.from_run(result)
    assert profile.total_executed == float(result.total_branch_execs)
    assert profile.total_taken == float(result.total_branch_taken)


def test_monitored_runs_bypass_cache(tmp_path):
    """A monitored request's summaries are memoized but never written to
    disk: the cache holds only the plain run of the same triple."""
    runner = WorkloadRunner(cache_dir=str(tmp_path))
    request = RunRequest("lfk", "default", monitors=("2bit@inf",))
    (report,) = runner.run_many([request])[0]
    assert runner.run_many([request])[0] == (report,)
    assert report.branch_execs == runner.run("lfk", "default").total_branch_execs
    assert len(os.listdir(tmp_path)) == 1
    assert runner.executions == 2


class TestCrossDatasetExperiment:
    @pytest.fixture(scope="class")
    def doduc(self, runner):
        return CrossDatasetExperiment("doduc", runner.run_all("doduc"))

    def test_dataset_names(self, doduc):
        assert doduc.dataset_names() == ["tiny", "small", "ref"]

    def test_self_prediction_is_upper_bound(self, doduc):
        for target in doduc.dataset_names():
            self_ipb = doduc.ipb(target, doduc.self_predictor(target))
            for other in doduc.dataset_names():
                if other == target:
                    continue
                cross = doduc.ipb(target, doduc.single_predictor(other))
                assert cross <= self_ipb + 1e-9

    def test_combined_predictor_excludes_target(self, doduc):
        predictor = doduc.combined_predictor("tiny")
        # Its profile totals must equal the sum of the scaled others: each
        # dataset contributes weight 1 after scaling.
        assert predictor.profile.total_executed == pytest.approx(2.0)

    def test_dataset_prediction_fields(self, doduc):
        prediction = doduc.dataset_prediction("ref")
        assert prediction.workload == "doduc"
        assert prediction.ipb_self >= prediction.ipb_combined > 0
        assert 0 < prediction.combined_fraction_of_self <= 1.0
        assert prediction.ipb_unpredicted < prediction.ipb_combined

    def test_figure2_fraction_is_the_quality_ratio(self, doduc):
        # One IPB / self-IPB ratio: Figure 2's "% of best" is quality()
        # of the same leave-one-out summary predictor.
        for target in doduc.dataset_names():
            prediction = doduc.dataset_prediction(target)
            assert prediction.combined_fraction_of_self == doduc.quality(
                target, doduc.combined_predictor(target)
            )
        assert fraction_of_bound(5.0, 0.0) == 0.0

    def test_best_worst_bounds(self, doduc):
        for target in doduc.dataset_names():
            best_worst = doduc.best_worst(target)
            assert best_worst.worst_percent <= best_worst.best_percent
            assert best_worst.best_percent <= 100.0 + 1e-9
            assert best_worst.best_other != target
            assert best_worst.worst_other != target

    def test_pairwise_matrix_diagonal_is_self(self, doduc):
        matrix = doduc.pairwise_matrix()
        for target in doduc.dataset_names():
            self_ipb = doduc.ipb(target, doduc.self_predictor(target))
            assert matrix[(target, target)] == pytest.approx(self_ipb)

    def test_best_worst_requires_multiple_datasets(self, runner):
        experiment = CrossDatasetExperiment("lfk", runner.run_all("lfk"))
        with pytest.raises(ValueError, match="2\\+ datasets"):
            experiment.best_worst("default")
