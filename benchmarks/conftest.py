"""Benchmark fixtures.

The session runner pre-warms every simulation the tables and figures need
(including the DCE configuration Table 1 uses), so that each benchmark
measures the experiment's regeneration — the analysis over the measured
runs — not the one-time simulations, which are served from the on-disk
cache on later invocations anyway.
"""
import pytest

from repro.core.runner import RunConfig, WorkloadRunner
from repro.experiments import table1
from repro.workloads import all_workloads, get_workload


@pytest.fixture(scope="session")
def runner():
    warmed = WorkloadRunner()
    for workload in all_workloads():
        for dataset in workload.dataset_names():
            warmed.run(workload.name, dataset)
    for program in table1.PAPER_DEAD_CODE:
        for dataset in get_workload(program).dataset_names():
            warmed.run(program, dataset, RunConfig(dce=True))
    return warmed
