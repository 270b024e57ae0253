"""The serve differential gate: served bytes == offline bytes.

Three layers:

* a hypothesis property test — for random profile sets, ``predict`` over
  the wire equals ``combine_profiles`` over the uploaded profiles (all of
  them, or all but the excluded one) bit-for-bit in all three modes;
* the full bundled sweep — every workload x dataset x combine mode,
  leave-one-out and all-datasets, through a live server;
* the degradation gate — a client whose server vanished serves the same
  bytes from its offline fallback mirror.

Offline profiles are always combined in sorted dataset-name order; that
is the service's documented iteration order (``ProfileDatabase.datasets``
sorts), and float summation is order-sensitive, so the gate pins it.
"""
import pytest

from repro.core.experiment import CrossDatasetExperiment
from repro.ir.instructions import BranchId
from repro.prediction.combine import combine_profiles
from repro.profiling.branch_profile import BranchProfile
from repro.profiling.database import ProfileDatabase
from repro.serve.client import ProfileClient, RetryPolicy
from repro.serve.protocol import canonical_profile_bytes
from repro.serve.server import ProfileServer
from repro.workloads.registry import all_workloads, get_workload

from tests.helpers import combine_without

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

MODES = ("scaled", "unscaled", "polling")


@pytest.fixture(scope="module")
def live():
    """One server + client shared by the module; programs are namespaced
    per test so uploads never collide."""
    with ProfileServer() as server:
        with ProfileClient(
            server.host, server.port, retry=RetryPolicy(attempts=2)
        ) as client:
            yield client


def profiles_from_counts(program, datasets):
    profiles = []
    for counts in datasets:
        profile = BranchProfile(program=program, runs=1)
        for (func, index), (executed, taken) in counts.items():
            profile.counts[BranchId(func, index)] = (
                float(executed), float(taken),
            )
        profiles.append(profile)
    return profiles


branch_ids = st.tuples(
    st.sampled_from(["f", "g", "loop"]), st.integers(0, 5)
)
branch_counts = st.integers(0, 10**6).flatmap(
    lambda executed: st.tuples(
        st.just(executed), st.integers(0, executed)
    )
)
dataset_counts = st.dictionaries(branch_ids, branch_counts, max_size=8)
profile_sets = st.lists(dataset_counts, min_size=2, max_size=5)

_counter = [0]


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(datasets=profile_sets)
def test_wire_predictions_equal_offline_combining(live, datasets):
    _counter[0] += 1
    program = f"hyp{_counter[0]}"
    profiles = profiles_from_counts(program, datasets)
    names = [f"d{index}" for index in range(len(profiles))]
    for name, profile in zip(names, profiles):
        live.upload_profile(program, name, profile)
    for mode in MODES:
        served = live.predict(program, mode=mode).profile
        offline = combine_profiles(profiles, mode=mode)
        assert canonical_profile_bytes(served) == canonical_profile_bytes(
            offline
        ), mode
        for index, name in enumerate(names):
            served_loo = live.predict(program, mode=mode, exclude=name).profile
            offline_loo = combine_without(profiles, index, mode)
            assert canonical_profile_bytes(
                served_loo
            ) == canonical_profile_bytes(offline_loo), (mode, name)


def test_every_bundled_workload_round_trips_bit_for_bit(runner, live):
    """The acceptance gate: every workload x dataset x combine mode,
    served over the socket == offline combine_profiles, with and without
    each dataset."""
    for workload in all_workloads():
        experiment = CrossDatasetExperiment(
            workload.name, runner.run_all(workload.name)
        )
        names = sorted(workload.dataset_names())
        profiles = []
        for name in names:
            result = runner.run(workload.name, name)
            profile = BranchProfile.from_run(result)
            live.upload_run(result, name)
            profiles.append(profile)
        for mode in MODES:
            served = live.predict(workload.name, mode=mode)
            assert served.datasets == names
            offline = combine_profiles(profiles, mode=mode)
            assert canonical_profile_bytes(
                served.profile
            ) == canonical_profile_bytes(offline), (workload.name, mode)
            assert canonical_profile_bytes(
                served.profile
            ) == canonical_profile_bytes(
                experiment.combined_predictor(mode=mode).profile
            ), (workload.name, mode)
            if len(names) < 2:
                continue
            for index, name in enumerate(names):
                served_loo = live.predict(
                    workload.name, mode=mode, exclude=name
                ).profile
                offline_loo = combine_without(profiles, index, mode)
                assert canonical_profile_bytes(
                    served_loo
                ) == canonical_profile_bytes(offline_loo), (
                    workload.name, mode, name,
                )
                assert canonical_profile_bytes(
                    served_loo
                ) == canonical_profile_bytes(
                    experiment.combined_predictor(name, mode=mode).profile
                ), (workload.name, mode, name)


def test_unreachable_server_degrades_to_identical_bytes(runner):
    """The client fallback gate: with the server gone, predictions come
    from the local mirror — and they are the same bytes the live server
    served for the same uploads."""
    workload = "doduc"
    runs = {
        name: runner.run(workload, name)
        for name in sorted(get_workload(workload).dataset_names())
    }

    served = {}
    with ProfileServer() as server:
        with ProfileClient(server.host, server.port) as online:
            for name, result in runs.items():
                online.upload_run(result, name)
            for mode in MODES:
                served[mode] = canonical_profile_bytes(
                    online.predict(workload, mode=mode).profile
                )
                served[mode, "tiny"] = canonical_profile_bytes(
                    online.predict(workload, mode=mode, exclude="tiny").profile
                )

    offline = ProfileClient(
        "127.0.0.1", 9,  # nothing listens here
        retry=RetryPolicy(attempts=2, backoff=0.01),
        fallback=ProfileDatabase(),
        sleep=lambda _: None,
    )
    for name, result in runs.items():
        assert offline.upload_run(result, name) is None
    for mode in MODES:
        degraded = offline.predict(workload, mode=mode)
        assert degraded.degraded
        assert canonical_profile_bytes(degraded.profile) == served[mode], mode
        degraded_loo = offline.predict(workload, mode=mode, exclude="tiny")
        assert canonical_profile_bytes(
            degraded_loo.profile
        ) == served[mode, "tiny"], mode
