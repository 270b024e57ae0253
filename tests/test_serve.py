"""Profile-feedback service tests: protocol, aggregator, metrics, server
round trips, fault injection, client resilience, runner integration, CLI.
"""
import json
import os
import signal
import socket
import struct
import subprocess
import sys
import threading
import time

import pytest

from repro.ir.instructions import BranchId
from repro.prediction.combine import combine_profiles
from repro.profiling.branch_profile import BranchProfile
from repro.profiling.database import ProfileDatabase
from repro.serve import protocol
from repro.serve.aggregator import Aggregator, database_predict
from repro.serve.client import (
    ProfileClient,
    RetryPolicy,
    ServiceError,
    ServiceUnavailable,
)
from repro.serve.metrics import LatencyHistogram, ServiceMetrics
from repro.serve import server as server_module
from repro.serve.server import ProfileServer


def make_profile(program, counts, runs=1):
    profile = BranchProfile(program=program, runs=runs)
    for (func, index), (executed, taken) in counts.items():
        profile.counts[BranchId(func, index)] = (float(executed), float(taken))
    return profile


PROFILES = {
    "d1": {("f", 0): (10, 3), ("f", 1): (7, 7)},
    "d2": {("f", 0): (100, 90)},
    "d3": {("f", 1): (5, 1), ("g", 0): (3, 2)},
}


def upload_demo(client, program="demo"):
    for dataset, counts in PROFILES.items():
        client.upload_profile(program, dataset, make_profile(program, counts))


def demo_profiles(program="demo"):
    return [make_profile(program, PROFILES[name]) for name in sorted(PROFILES)]


@pytest.fixture()
def server():
    with ProfileServer() as instance:
        yield instance


@pytest.fixture()
def client(server):
    with ProfileClient(
        server.host, server.port, retry=RetryPolicy(attempts=2, backoff=0.01)
    ) as instance:
        yield instance


# -- protocol ------------------------------------------------------------------


def test_frame_round_trip():
    payload = protocol.request("health")
    frame = protocol.encode_frame(payload)
    length = struct.unpack(">I", frame[:4])[0]
    assert length == len(frame) - 4
    assert protocol.decode_body(frame[4:]) == payload


def test_canonical_json_is_sorted_and_compact():
    assert protocol.canonical_json({"b": 1, "a": [1.5]}) == b'{"a":[1.5],"b":1}'


def test_oversized_frame_rejected_without_allocation():
    header = struct.pack(">I", protocol.MAX_FRAME_BYTES + 1)
    with pytest.raises(protocol.ProtocolError, match="cap"):
        protocol._claimed_length(header)


def test_version_check_and_unknown_op():
    with pytest.raises(protocol.ProtocolError, match="version"):
        protocol.check_version({"v": 999, "op": "health"})
    with pytest.raises(protocol.ProtocolError, match="unknown operation"):
        protocol.request("bogus")


def test_decode_body_rejects_non_objects():
    with pytest.raises(protocol.ProtocolError):
        protocol.decode_body(b"[1,2]")
    with pytest.raises(protocol.ProtocolError):
        protocol.decode_body(b"\xff\xfe")


def test_profile_wire_round_trip():
    profile = make_profile("demo", PROFILES["d1"])
    restored = protocol.profile_from_wire(protocol.profile_to_wire(profile))
    assert restored.counts == profile.counts
    assert protocol.canonical_profile_bytes(
        restored
    ) == protocol.canonical_profile_bytes(profile)
    with pytest.raises(protocol.ProtocolError):
        protocol.profile_from_wire({"program": "x"})


# -- metrics -------------------------------------------------------------------


def test_latency_histogram_percentiles():
    histogram = LatencyHistogram()
    assert histogram.percentile(0.99) is None
    for _ in range(99):
        histogram.observe(0.0005)
    histogram.observe(2.0)
    assert histogram.percentile(0.50) == pytest.approx(0.001)
    assert histogram.percentile(0.99) == pytest.approx(0.001)
    assert histogram.total == 100
    assert histogram.as_dict()["max_s"] == pytest.approx(2.0)


def test_metrics_snapshot_shape():
    metrics = ServiceMetrics(ops=["upload"])
    metrics.start_request()
    metrics.record_request("upload", 0.001, error=False)
    metrics.finish_request()
    metrics.record_request("upload", 0.002, error=True)
    snapshot = metrics.snapshot()
    assert snapshot["requests"]["upload"] == 2
    assert snapshot["errors"]["upload"] == 1
    assert snapshot["queue"] == {"inflight": 0, "inflight_peak": 1}
    assert snapshot["latency"]["upload"]["count"] == 2


# -- aggregator ----------------------------------------------------------------


def test_aggregator_record_predict_and_epoch():
    aggregator = Aggregator()
    assert aggregator.epoch == 0
    for dataset, counts in PROFILES.items():
        aggregator.record_profile("demo", dataset, make_profile("demo", counts))
    assert aggregator.epoch == 3
    profile, datasets, epoch = aggregator.predict("demo", mode="scaled")
    assert datasets == ["d1", "d2", "d3"]
    assert epoch == 3
    offline = combine_profiles(demo_profiles(), mode="scaled")
    assert protocol.canonical_profile_bytes(
        profile
    ) == protocol.canonical_profile_bytes(offline)


def test_aggregator_predict_errors():
    aggregator = Aggregator()
    with pytest.raises(KeyError):
        aggregator.predict("missing")
    aggregator.record_profile("demo", "d1", make_profile("demo", PROFILES["d1"]))
    with pytest.raises(KeyError):
        aggregator.predict("demo", exclude="nope")
    with pytest.raises(ValueError):
        aggregator.predict("demo", exclude="d1")
    with pytest.raises(ValueError):
        aggregator.predict("demo", mode="bogus")


def test_aggregator_persistence_round_trip(tmp_path):
    persist = str(tmp_path / "agg")
    aggregator = Aggregator(persist_dir=persist)
    for dataset, counts in PROFILES.items():
        aggregator.record_profile("demo", dataset, make_profile("demo", counts))
    aggregator.record_profile("other", "d", make_profile("other", PROFILES["d2"]))
    assert aggregator.dirty
    assert aggregator.flush()
    assert not aggregator.dirty
    assert not aggregator.flush()  # write-behind: a clean store is skipped
    # One store, one file, and no temp files left behind.
    assert sorted(path.name for path in (tmp_path / "agg").iterdir()) == [
        "profiles.json"
    ]

    reloaded = Aggregator(persist_dir=persist)
    assert reloaded.programs() == ["demo", "other"]
    original = aggregator.predict("demo", mode="unscaled")[0]
    recovered = reloaded.predict("demo", mode="unscaled")[0]
    assert protocol.canonical_profile_bytes(
        recovered
    ) == protocol.canonical_profile_bytes(original)


def test_aggregator_stats_contents():
    aggregator = Aggregator()
    aggregator.record_profile("demo", "d1", make_profile("demo", PROFILES["d1"]))
    stats = aggregator.stats()
    assert stats["epoch"] == 1
    entry = stats["programs"]["demo"]["datasets"]["d1"]
    assert entry["runs"] == 1
    assert entry["branch_sites"] == 2
    assert entry["total_executed"] == 17.0


# -- server round trips --------------------------------------------------------


def test_server_upload_predict_round_trip(client):
    upload_demo(client)
    for mode in ("scaled", "unscaled", "polling"):
        prediction = client.predict("demo", mode=mode)
        offline = combine_profiles(demo_profiles(), mode=mode)
        assert protocol.canonical_profile_bytes(
            prediction.profile
        ) == protocol.canonical_profile_bytes(offline), mode
        assert prediction.datasets == ["d1", "d2", "d3"]
        assert not prediction.degraded
    health = client.health()
    assert health["status"] == "ok"
    assert health["epoch"] == 3


def test_server_stats_reports_uploads_and_metrics(client):
    upload_demo(client)
    response = client.stats()
    assert response["stats"]["programs"]["demo"]["datasets"]["d2"]["runs"] == 1
    assert response["metrics"]["requests"]["upload"] == 3
    assert response["metrics"]["errors"]["upload"] == 0


def test_server_error_responses_do_not_mutate_state(client):
    upload_demo(client)
    epoch_before = client.health()["epoch"]
    # Unknown program, unknown mode, malformed profile: all answered, none
    # recorded, connection stays usable.
    with pytest.raises(ServiceError, match="no profiles"):
        client.predict("missing")
    with pytest.raises(ServiceError, match="unknown combine mode"):
        client.predict("demo", mode="bogus")
    with pytest.raises(ServiceError, match="malformed profile"):
        client.request(
            protocol.request(
                "upload", program="demo", dataset="dx", profile={"nope": 1}
            )
        )
    with pytest.raises(ServiceError, match="unknown operation"):
        client.request({"v": protocol.PROTOCOL_VERSION, "op": "explode"})
    with pytest.raises(ServiceError, match="version"):
        client.request({"v": 999, "op": "health"})
    assert client.health()["epoch"] == epoch_before
    metrics = client.stats()["metrics"]
    assert metrics["errors"]["predict"] == 2
    assert metrics["errors"]["invalid"] == 1


# -- fault injection -----------------------------------------------------------


def _raw_connect(server):
    return socket.create_connection((server.host, server.port), timeout=5.0)


def wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never became true"
        time.sleep(0.005)


def test_dropped_connection_mid_header(server, client):
    upload_demo(client)
    before = client.stats()["stats"]
    raw = _raw_connect(server)
    raw.sendall(b"\x00\x00")  # 2 of 4 header bytes
    raw.close()
    time.sleep(0.05)
    assert client.stats()["stats"] == before  # state untouched, server alive


def test_dropped_connection_mid_frame(server, client):
    upload_demo(client)
    before = client.stats()["stats"]
    raw = _raw_connect(server)
    raw.sendall(struct.pack(">I", 4096) + b'{"v":1,')  # claim 4096, send 7
    raw.close()
    time.sleep(0.05)
    assert client.stats()["stats"] == before
    assert client.health()["status"] == "ok"


def test_garbage_and_oversized_frames_cost_only_the_connection(server, client):
    upload_demo(client)
    before = client.stats()["stats"]
    garbage = _raw_connect(server)
    garbage.sendall(struct.pack(">I", 9) + b"not json!")
    assert garbage.recv(1) == b""  # server closes the poisoned connection
    garbage.close()
    oversized = _raw_connect(server)
    oversized.sendall(struct.pack(">I", protocol.MAX_FRAME_BYTES + 1))
    assert oversized.recv(1) == b""
    oversized.close()
    assert client.stats()["stats"] == before
    assert client.stats()["metrics"]["protocol_errors"] >= 2


def test_slow_client_does_not_block_fast_clients(server, client):
    frame = protocol.encode_frame(
        protocol.request(
            "upload",
            program="slow",
            dataset="d",
            profile=protocol.profile_to_wire(make_profile("slow", PROFILES["d1"])),
        )
    )
    slow_response = {}

    def dribble():
        raw = _raw_connect(server)
        for index in range(0, len(frame), 16):
            raw.sendall(frame[index:index + 16])
            time.sleep(0.005)
        slow_response["payload"] = protocol.read_frame(raw)
        raw.close()

    thread = threading.Thread(target=dribble)
    thread.start()
    # The fast client is served while the slow upload dribbles in.
    for _ in range(20):
        assert client.health()["status"] == "ok"
    thread.join(timeout=10.0)
    assert slow_response["payload"]["ok"] is True
    profile, _, _ = server.aggregator.predict("slow", mode="unscaled")
    assert profile.counts[BranchId("f", 0)] == (10.0, 3.0)


def test_backpressure_bounds_inflight_work():
    """Four clients upload at once: every upload lands, each bumps the
    epoch once, and the synchronous dispatch never has two requests in
    flight — a burst waits on the sockets, not inside the aggregator."""
    with ProfileServer() as server:
        clients = [
            ProfileClient(server.host, server.port) for _ in range(4)
        ]
        errors = []

        def spam(instance, program):
            try:
                for index in range(25):
                    instance.upload_profile(
                        program, f"d{index}",
                        make_profile(program, PROFILES["d1"]),
                    )
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        threads = [
            threading.Thread(target=spam, args=(instance, f"prog{number}"))
            for number, instance in enumerate(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
            assert not thread.is_alive()
        assert not errors
        assert server.aggregator.epoch == 100
        snapshot = server.metrics.snapshot()
        assert snapshot["requests"]["upload"] == 100
        assert snapshot["queue"]["inflight_peak"] == 1
        for instance in clients:
            instance.close()


def test_connection_churn_leaves_no_connection_behind():
    """Many threads open, use and drop connections with a short switch
    interval: every upload lands once and the connection table empties."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ProfileServer() as server:
            errors = []

            def churn(number):
                try:
                    for index in range(10):
                        with ProfileClient(server.host, server.port) as client:
                            client.upload_profile(
                                f"prog{number}", f"d{index}",
                                make_profile(f"prog{number}", PROFILES["d1"]),
                            )
                except Exception as exc:  # noqa: BLE001 - collected for assert
                    errors.append(exc)

            threads = [
                threading.Thread(target=churn, args=(number,))
                for number in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
                assert not thread.is_alive()
            assert not errors
            assert server.aggregator.epoch == 80
            wait_until(lambda: not server._connections)
            connections = server.metrics.snapshot()["connections"]
            assert connections["opened"] == connections["closed"] == 80
    finally:
        sys.setswitchinterval(interval)


def test_client_retries_with_exponential_backoff():
    delays = []
    client = ProfileClient(
        "127.0.0.1", 9,  # discard port: nothing listens
        retry=RetryPolicy(attempts=4, backoff=0.05),
        sleep=delays.append,
    )
    with pytest.raises(ServiceUnavailable, match="after 4 attempts"):
        client.health()
    assert delays == [0.05, 0.1, 0.2]
    assert client.transport_failures == 4


def test_retry_policy_caps_backoff():
    policy = RetryPolicy(attempts=6, backoff=0.1, max_backoff=0.3)
    assert list(policy.delays()) == [0.1, 0.2, 0.3, 0.3, 0.3]
    with pytest.raises(ValueError):
        RetryPolicy(attempts=0)


def test_client_reconnects_after_server_restart():
    first = ProfileServer().start()
    host, port = first.host, first.port
    client = ProfileClient(
        host, port, retry=RetryPolicy(attempts=8, backoff=0.05)
    )
    upload_demo(client)
    reference = protocol.canonical_profile_bytes(
        client.predict("demo").profile
    )
    first.stop()
    second = ProfileServer(port=port).start()
    try:
        upload_demo(client)  # reconnects transparently on the same client
        served = protocol.canonical_profile_bytes(client.predict("demo").profile)
        assert served == reference
        assert client.transport_failures >= 1
    finally:
        client.close()
        second.stop()


def test_graceful_drain_flushes_persistence(tmp_path, monkeypatch):
    persist = str(tmp_path / "drain")
    aggregator = Aggregator(persist_dir=persist)
    # Long flush interval: only the drain path can have written the data.
    monkeypatch.setattr(server_module, "FLUSH_INTERVAL", 3600.0)
    with ProfileServer(aggregator) as server:
        with ProfileClient(server.host, server.port) as client:
            upload_demo(client)
    reloaded = Aggregator(persist_dir=persist)
    assert reloaded.programs() == ["demo"]
    assert reloaded.datasets("demo") == ["d1", "d2", "d3"]


def test_drain_flush_waits_for_a_write_behind_flush(tmp_path, monkeypatch):
    """A write-behind flush still writing an older snapshot when the server
    stops must land before the drain flush, not after it."""
    from repro.serve import aggregator as aggregator_module

    started, release, written = (threading.Event() for _ in range(3))
    real_write = aggregator_module.write_json_atomic

    def slow_first_write(*args, **kwargs):
        first = not started.is_set()
        if first:
            started.set()
            release.wait(10.0)
        real_write(*args, **kwargs)
        if first:
            written.set()

    monkeypatch.setattr(aggregator_module, "write_json_atomic", slow_first_write)
    persist = str(tmp_path / "db")
    monkeypatch.setattr(server_module, "FLUSH_INTERVAL", 0.01)
    server = ProfileServer(Aggregator(persist_dir=persist))
    with server, ProfileClient(server.host, server.port) as client:
        client.upload_profile("demo", "d1", make_profile("demo", PROFILES["d1"]))
        assert started.wait(10.0)  # the flush now holds a d1-only snapshot
        client.upload_profile("demo", "d2", make_profile("demo", PROFILES["d2"]))
        threading.Timer(0.2, release.set).start()
    assert written.wait(10.0)
    assert Aggregator(persist_dir=persist).datasets("demo") == ["d1", "d2"]


def test_stop_closes_idle_connections_at_once():
    """An idle keep-alive client must not hold stop() for DRAIN_TIMEOUT."""
    server = ProfileServer().start()
    idle = ProfileClient(server.host, server.port, retry=RetryPolicy(attempts=1))
    assert idle.health()["status"] == "ok"  # connected, now idle
    started = time.monotonic()
    server.stop()
    assert time.monotonic() - started < 1.0
    with pytest.raises(ServiceUnavailable):
        idle.health()  # its connection was closed and nothing listens
    idle.close()


def test_stop_drains_a_request_in_progress(tmp_path, monkeypatch):
    """A request whose frame is half sent when stop() starts is finished,
    answered, and included in the final flush."""
    monkeypatch.setattr(server_module, "FLUSH_INTERVAL", 3600.0)
    persist = str(tmp_path / "db")
    server = ProfileServer(Aggregator(persist_dir=persist)).start()
    frame = protocol.encode_frame(
        protocol.request(
            "upload",
            program="demo",
            dataset="d1",
            profile=protocol.profile_to_wire(make_profile("demo", PROFILES["d1"])),
        )
    )
    raw = _raw_connect(server)
    raw.sendall(frame[: len(frame) // 2])
    wait_until(lambda: any(server._connections.values()))  # counted as busy
    stopper = threading.Thread(target=server.stop)
    stopper.start()
    wait_until(lambda: server._draining)
    raw.sendall(frame[len(frame) // 2:])
    response = protocol.read_frame(raw)
    raw.close()
    stopper.join(timeout=10.0)
    assert not stopper.is_alive()
    assert response["ok"] is True and response["epoch"] == 1
    assert Aggregator(persist_dir=persist).datasets("demo") == ["d1"]


def test_degraded_client_serves_offline_bytes():
    database = ProfileDatabase()
    client = ProfileClient(
        "127.0.0.1", 9,
        retry=RetryPolicy(attempts=2, backoff=0.01),
        fallback=database,
        sleep=lambda _: None,
    )
    upload_demo(client)  # absorbed by the fallback mirror
    prediction = client.predict("demo", mode="scaled")
    assert prediction.degraded and client.degraded
    offline = combine_profiles(demo_profiles(), mode="scaled")
    assert protocol.canonical_profile_bytes(
        prediction.profile
    ) == protocol.canonical_profile_bytes(offline)
    # health/stats have no offline analog and must still raise.
    with pytest.raises(ServiceUnavailable):
        client.health()


def test_fallback_mirror_does_not_alias_uploaded_profiles():
    database = ProfileDatabase()
    client = ProfileClient(
        "127.0.0.1", 9, retry=RetryPolicy(attempts=1),
        fallback=database, sleep=lambda _: None,
    )
    mine = make_profile("demo", PROFILES["d1"])
    client.upload_profile("demo", "d1", mine)
    mirrored = database.dataset_profile("demo", "d1")
    assert mirrored.counts == mine.counts
    assert mirrored is not mine
    mirrored.counts[BranchId("f", 0)] = (0.0, 0.0)
    assert mine.counts[BranchId("f", 0)] == (10.0, 3.0)


# -- runner integration --------------------------------------------------------


def test_server_aggregation_matches_offline_database(runner):
    """Uploading a workload's runs accumulates exactly what an offline
    ProfileDatabase would."""
    offline = ProfileDatabase()
    with ProfileServer() as server:
        with ProfileClient(server.host, server.port) as client:
            for dataset, result in runner.run_all("doduc").items():
                client.upload_run(result, dataset)
                offline.record(result, dataset)
            for mode in ("scaled", "unscaled", "polling"):
                served = client.predict("doduc", mode=mode).profile
                local, _ = database_predict(offline, "doduc", mode=mode)
                assert protocol.canonical_profile_bytes(
                    served
                ) == protocol.canonical_profile_bytes(local), mode


# -- CLI -----------------------------------------------------------------------


def test_cli_parse_server_validation():
    from repro.serve.cli import _parse_server

    assert _parse_server("127.0.0.1:7381") == ("127.0.0.1", 7381)
    import argparse

    with pytest.raises(argparse.ArgumentTypeError):
        _parse_server("no-port")
    with pytest.raises(argparse.ArgumentTypeError):
        _parse_server(":123")


def test_cli_round_trip_against_live_server(runner, capsys):
    from repro.serve.cli import main

    with ProfileServer() as server:
        address = f"{server.host}:{server.port}"
        assert main([
            "upload-sweep", "--server", address, "--workloads", "doduc",
        ]) == 0
        out = capsys.readouterr().out
        assert "uploaded doduc/tiny" in out
        assert "3 uploads" in out
        assert main([
            "predict", "--server", address, "--program", "doduc",
            "--exclude", "ref", "--verify-offline",
        ]) == 0
        captured = capsys.readouterr()
        assert "served bytes == offline bytes" in captured.err
        served = json.loads(captured.out)
        assert served["program"] == "doduc"
        assert main(["stats", "--server", address, "--metrics"]) == 0
        metrics = json.loads(capsys.readouterr().out)
        assert metrics["requests"]["upload"] == 3
        assert main(["health", "--server", address]) == 0
        health = json.loads(capsys.readouterr().out)
        assert health["status"] == "ok"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_cli_upload_sweep_uploads_each_dataset_once(
    tmp_path, monkeypatch, capsys, jobs
):
    """Cold (a pool of two workers with ``--jobs 2``) and then warm, every
    dataset reaches the server exactly once, in request order."""
    from repro.serve.cli import main

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    expected = [
        f"uploaded {program}/{dataset}"
        for program, datasets in (
            ("doduc", ("tiny", "small", "ref")), ("fpppp", ("4atoms", "8atoms")),
        )
        for dataset in datasets
    ]
    for cache in ("cold", "warm"):
        with ProfileServer() as server:
            assert main([
                "upload-sweep", "--server", f"{server.host}:{server.port}",
                "--workloads", "doduc,fpppp", "--jobs", jobs,
            ]) == 0, cache
            metrics = server.metrics.snapshot()
        lines = capsys.readouterr().out.splitlines()
        assert lines == expected + ["upload-sweep: 5 uploads, server epoch 5"]
        assert metrics["requests"]["upload"] == 5, cache
    assert len(os.listdir(tmp_path / "cache")) == 5


def test_cli_serve_lifecycle(tmp_path):
    """`repro-serve serve` starts, persists uploads, and drains on SIGTERM."""
    import repro

    ready = tmp_path / "ready.txt"
    persist = str(tmp_path / "db")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.dirname(repro.__file__))]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.serve.cli", "serve", "--port", "0",
            "--ready-file", str(ready), "--db", persist,
        ],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )
    try:
        wait_until(
            lambda: process.poll() is not None
            or (ready.exists() and ready.read_text().endswith("\n")),
            timeout=60.0,
        )
        assert process.poll() is None, process.communicate()[1]
        host, _, port = ready.read_text().strip().rpartition(":")
        with ProfileClient(host, int(port)) as client:
            upload_demo(client)
        process.send_signal(signal.SIGTERM)
        out, err = process.communicate(timeout=30.0)
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate()
    assert process.returncode == 0, err
    assert "stopped" in out
    assert Aggregator(persist_dir=persist).datasets("demo") == ["d1", "d2", "d3"]


def test_cli_upload_sweep_rejects_empty_workloads(capsys):
    from repro.serve.cli import main

    assert main(["upload-sweep", "--workloads", ",", "--server", "x:1"]) == 2
