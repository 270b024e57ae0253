"""Workload integrity: every Table 2 analog compiles, runs, and behaves."""
import fnmatch
import itertools
import os
import subprocess
import sys
import textwrap

import pytest

from repro.compiler import compile_source
from repro.core.parallel import RunRequest
from repro.core.runner import RunConfig
from repro.workloads import (
    FORTRAN,
    all_workloads,
    get_workload,
    multi_dataset_workloads,
    workload_names,
)
from repro.workloads.base import DATA_DIR, load_data

EXPECTED_NAMES = [
    "spice2g6", "doduc", "nasa7", "matrix300", "fpppp", "tomcatv", "lfk",
    "gcc", "espresso", "li", "eqntott", "compress", "uncompress", "mfcom",
    "spiff",
]


def test_registry_has_all_table2_programs():
    assert workload_names() == EXPECTED_NAMES


def test_unknown_workload_raises():
    from repro.workloads.registry import get_workload as get

    with pytest.raises(KeyError, match="unknown workload"):
        get("nonesuch")


def test_workloads_are_cached_by_registry():
    assert get_workload("lfk") is get_workload("lfk")


def test_every_workload_compiles():
    for workload in all_workloads():
        compiled = compile_source(workload.source, name=workload.name)
        assert compiled.lowered.functions, workload.name


def test_dataset_generation_is_deterministic():
    for name in ("gcc", "espresso", "spice2g6", "spiff"):
        first = get_workload(name)
        # Bypass the registry cache to rebuild from scratch.
        from repro.workloads.registry import _factories

        rebuilt = _factories()[name]()
        for a, b in zip(first.datasets, rebuilt.datasets):
            assert a.name == b.name
            assert a.data == b.data


def test_paper_dataset_names_present():
    spice = get_workload("spice2g6")
    for expected in ("circuit1", "circuit5", "add_bjt", "add_fet",
                     "greysmall", "greybig"):
        assert expected in spice.dataset_names()
    assert get_workload("eqntott").dataset_names() == [
        "add4", "add5", "add6", "intpri",
    ]
    assert get_workload("compress").dataset_names() == (
        get_workload("uncompress").dataset_names()
    )


def test_categories():
    categories = {wl.name: wl.category for wl in all_workloads()}
    assert categories["spice2g6"] == FORTRAN
    assert categories["tomcatv"] == FORTRAN
    assert categories["li"] != FORTRAN


def test_multi_dataset_workloads_have_two_plus():
    multis = multi_dataset_workloads()
    assert all(len(wl.datasets) >= 2 for wl in multis)
    names = {wl.name for wl in multis}
    assert "spice2g6" in names and "tomcatv" not in names


def test_dataset_lookup_errors():
    with pytest.raises(KeyError):
        get_workload("lfk").dataset("nonesuch")


class TestWorkloadBehaviour:
    """Selected output correctness (the analogs compute real answers)."""

    def test_li_queens_solution_counts(self, runner):
        assert runner.run("li", "5queens").output == b"10\n"
        assert runner.run("li", "6queens").output == b"4\n"

    def test_li_sieve_counts_primes(self, runner):
        # pi(519) = 97 primes below the sieve limit of 520.
        assert runner.run("li", "sieve1").output == b"97\n"

    def test_compress_roundtrip_through_uncompress(self, runner):
        compress = get_workload("compress")
        uncompress = get_workload("uncompress")
        for name in compress.dataset_names():
            plain = compress.dataset(name).data[1:]  # strip mode byte
            decompressed = runner.run("uncompress", name).output
            assert decompressed == plain, name

    def test_all_runs_exit_cleanly(self, runner):
        for workload in all_workloads():
            for dataset in workload.dataset_names():
                result = runner.run(workload.name, dataset)
                assert result.exit_code == 0, (workload.name, dataset)
                assert result.instructions > 1000, (workload.name, dataset)
                assert result.total_branch_execs > 0, (workload.name, dataset)

    def test_dce_preserves_output_everywhere(self, runner):
        for workload in all_workloads():
            for dataset in workload.dataset_names():
                default = runner.run(workload.name, dataset)
                dce = runner.run(workload.name, dataset, RunConfig(dce=True))
                assert default.output == dce.output, (workload.name, dataset)
                assert dce.instructions <= default.instructions

    def test_fpppp_has_sparse_branches_li_dense(self, runner):
        from repro.metrics import branch_density

        fpppp = branch_density(runner.run("fpppp", "8atoms"))
        li = branch_density(runner.run("li", "6queens"))
        # The paper's motivating contrast: li branches every ~10
        # instructions, fpppp every ~170.
        assert li < 15
        assert fpppp > 100

    def test_direct_calls_heavy_in_li(self, runner):
        result = runner.run("li", "sieve1")
        assert result.events.direct_calls > 1000

    def test_indirect_calls_exercised_by_spice(self, runner):
        # spice registers device setup hooks through a function table; each
        # device's setup is an indirect call (an unavoidable break).
        result = runner.run("spice2g6", "add_bjt")
        assert result.events.indirect_calls > 0
        assert result.events.indirect_returns == result.events.indirect_calls


class TestCompressionData:
    """compress's image datasets and uncompress's inputs are checked-in
    files under ``workloads/data/``; building them compiles and runs
    nothing."""

    CONFIGS = [
        RunConfig(dce=dce, inline=inline, if_conversion=ifconv)
        for dce, inline, ifconv in itertools.product((False, True), repeat=3)
    ]

    def test_the_pair_is_exact_under_every_config(self, runner):
        """compress's output on each dataset, under each compile
        configuration, is the checked-in uncompress input."""
        compress = get_workload("compress")
        requests = [
            RunRequest("compress", name, config)
            for config in self.CONFIGS
            for name in compress.dataset_names()
        ]
        mismatches = [
            request.describe()
            for request, result in zip(requests, runner.run_many(requests))
            if result.output != load_data(f"{request.dataset}.lzw")
        ]
        assert len(requests) == 40 and mismatches == []

    def test_the_lzw_files_are_uncompress_inputs(self):
        uncompress = get_workload("uncompress")
        for name in uncompress.dataset_names():
            assert uncompress.dataset(name).data == b"D" + load_data(f"{name}.lzw")

    def test_building_the_workloads_compiles_and_runs_nothing(self):
        script = textwrap.dedent(
            """
            import repro.compiler
            import repro.vm.machine

            def refuse(*args, **kwargs):
                raise AssertionError("building a workload compiled or ran")

            repro.compiler.compile_source = refuse
            repro.vm.machine.run_program = refuse

            from repro.workloads.registry import _factories

            built = [factory() for factory in _factories().values()]
            print(len(built))
            """
        )
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["15"]

    def test_every_data_file_is_package_data(self):
        tomllib = pytest.importorskip("tomllib")
        root = os.path.join(os.path.dirname(__file__), "..")
        with open(os.path.join(root, "pyproject.toml"), "rb") as handle:
            package_data = tomllib.load(handle)["tool"]["setuptools"][
                "package-data"
            ]["repro.workloads"]
        names = sorted(os.listdir(DATA_DIR))
        assert names
        for name in names:
            assert any(
                fnmatch.fnmatch(f"data/{name}", pattern) for pattern in package_data
            ), name
