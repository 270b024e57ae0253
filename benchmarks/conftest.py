"""Benchmark fixtures.

The session runner pre-warms every simulation the tables and figures need
(including the DCE configuration Table 1 uses), so that each benchmark
measures the experiment's regeneration — the analysis over the measured
runs — not the one-time simulations, which are served from the on-disk
cache on later invocations anyway.
"""
import pytest

from repro.core.runner import WorkloadRunner
from repro.experiments import figure1, table1


@pytest.fixture(scope="session")
def runner():
    warmed = WorkloadRunner()
    warmed.run_many(table1.requests() + figure1.requests())
    return warmed
