"""Shared fixtures.

The session-scoped runner uses the repository's on-disk run cache
(.repro-cache), so the expensive workload simulations happen once per
machine, not once per test run.  Entries are keyed on the code
fingerprint (``repro.core.cache.code_fingerprint``) as well as source,
input and config, so after any edit to the compiler, optimizer, IR,
analyses or VM the session runs cold instead of reading stale counters.
"""
import pytest

from repro.core.runner import WorkloadRunner


@pytest.fixture(scope="session")
def runner():
    return WorkloadRunner()
