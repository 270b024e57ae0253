"""The threaded profile-feedback server.

One ``ProfileServer`` owns an ``Aggregator`` and serves the four protocol
operations over TCP, one thread per connection
(``socketserver.ThreadingTCPServer``).  Design points:

* **One request at a time.**  Dispatch and its metrics run under one
  lock, so requests never interleave inside the aggregator; a burst
  queues on that lock and degrades to latency.  The in-flight gauge and
  its peak (always 1) are exported via metrics.
* **Connection isolation.**  A peer that vanishes mid-frame, sends
  garbage, claims an oversized frame or idles past ``IDLE_TIMEOUT`` costs
  the server exactly that connection: the handler counts the protocol
  error and closes.  Aggregator mutations happen only after a request
  parses completely, so a broken upload can never leave partial state
  behind.
* **Graceful drain.**  ``stop()`` stops accepting, closes idle
  connections at once, gives connections in the middle of a request (from
  the first header byte until the response is written) up to
  ``DRAIN_TIMEOUT`` to finish, hangs up on stragglers, then flushes the
  aggregator to disk.
* **Write-behind persistence.**  A flusher thread writes a changed
  aggregator every ``FLUSH_INTERVAL`` seconds, so uploads never wait on
  the filesystem.  ``stop()`` joins it before the final flush, so two
  flushes never race the same file.
"""
from __future__ import annotations

import socket
import socketserver
import threading
import time
from typing import Dict, Optional

from repro.serve import protocol
from repro.serve.aggregator import Aggregator
from repro.serve.metrics import ServiceMetrics

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 7381

#: Seconds a connection may sit idle between requests before it is closed.
IDLE_TIMEOUT = 60.0

#: Seconds ``stop()`` waits for requests in progress before hanging up.
DRAIN_TIMEOUT = 5.0

#: Seconds between write-behind flushes of a changed aggregator.
FLUSH_INTERVAL = 1.0

#: How often the accept loop checks for ``shutdown()``; bounds its latency.
_POLL_INTERVAL = 0.05


def _hang_up(sock: socket.socket) -> None:
    """Wake the connection's handler: its blocked read sees EOF."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass  # the peer is already gone


class _Connection(socketserver.BaseRequestHandler):
    server: "ProfileServer"

    def handle(self) -> None:
        self.server._serve_connection(self.request)


class ProfileServer(socketserver.ThreadingTCPServer):
    """Threaded TCP server over one aggregator."""

    allow_reuse_address = True
    daemon_threads = True
    block_on_close = False  # stop() drains connections itself

    def __init__(
        self,
        aggregator: Optional[Aggregator] = None,
        host: str = DEFAULT_HOST,
        port: int = 0,
    ) -> None:
        super().__init__((host, port), _Connection, bind_and_activate=False)
        self.aggregator = aggregator or Aggregator()
        self.host = host
        self.port = port
        self.metrics = ServiceMetrics(ops=list(protocol.OPS))
        # Guards dispatch, its metrics and the connection table, which
        # maps each open socket to whether it is inside a request.
        self._lock = threading.Condition()
        self._connections: Dict[socket.socket, bool] = {}
        self._draining = False
        self._stopping = threading.Event()
        self._serving: Optional[threading.Thread] = None
        self._flusher: Optional[threading.Thread] = None

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "ProfileServer":
        """Bind and start accepting; ``self.port`` is updated with the
        actual port when 0 was requested."""
        try:
            self.server_bind()
            self.server_activate()
        except BaseException:
            self.server_close()
            raise
        self.port = self.server_address[1]
        self._serving = threading.Thread(
            target=self.serve_forever, args=(_POLL_INTERVAL,), daemon=True
        )
        self._serving.start()
        if self.aggregator.persist_dir:
            self._flusher = threading.Thread(target=self._flush_loop, daemon=True)
            self._flusher.start()
        return self

    def stop(self) -> None:
        """Graceful drain: stop accepting, finish requests in progress,
        flush."""
        if self._serving is None:
            return
        self.shutdown()
        self.server_close()
        self._serving = None
        with self._lock:
            self._draining = True
            for sock, busy in self._connections.items():
                if not busy:
                    _hang_up(sock)
            if not self._lock.wait_for(lambda: not self._connections, DRAIN_TIMEOUT):
                for sock in self._connections:
                    _hang_up(sock)
                self._lock.wait_for(lambda: not self._connections, DRAIN_TIMEOUT)
        self._stopping.set()
        if self._flusher is not None:
            self._flusher.join()
        self.aggregator.flush()

    def __enter__(self) -> "ProfileServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _flush_loop(self) -> None:
        while not self._stopping.wait(FLUSH_INTERVAL):
            self.aggregator.flush()  # a no-op while nothing changed

    # -- connection handling ------------------------------------------------

    def _serve_connection(self, sock: socket.socket) -> None:
        sock.settimeout(IDLE_TIMEOUT)
        with self._lock:
            if self._draining:
                return
            self._connections[sock] = False
        self.metrics.connection_opened()
        try:
            while True:
                try:
                    # Wait for a request's first byte without taking it.
                    if not sock.recv(1, socket.MSG_PEEK):
                        break  # clean EOF, or stop() closed an idle connection
                    if not self._mark(sock, busy=True):
                        break
                    payload = protocol.read_frame(sock)
                    if payload is None:
                        break  # stop() hung up on this straggler
                    protocol.write_frame(sock, self._serve_request(payload))
                except (OSError, protocol.ProtocolError):
                    self.metrics.record_protocol_error()
                    break
                if not self._mark(sock, busy=False):
                    break
        finally:
            with self._lock:
                del self._connections[sock]
                self._lock.notify_all()
            self.metrics.connection_closed()

    def _mark(self, sock: socket.socket, busy: bool) -> bool:
        """Enter or leave a request; False once the server is draining."""
        with self._lock:
            self._connections[sock] = busy
            return not self._draining

    def _serve_request(self, payload: Dict) -> Dict:
        op = payload.get("op")
        op_label = op if op in protocol.OPS else "invalid"
        with self._lock:
            self.metrics.start_request()
            started = time.monotonic()
            try:
                response = self._dispatch(payload)
            except protocol.ProtocolError as exc:
                response = protocol.error_response(str(exc))
            except (KeyError, ValueError) as exc:
                response = protocol.error_response(str(exc))
            except Exception as exc:  # a bug, but never kill the service
                response = protocol.error_response(
                    f"internal error: {type(exc).__name__}: {exc}"
                )
            finally:
                self.metrics.finish_request()
            self.metrics.record_request(
                op_label, time.monotonic() - started, error=not response["ok"]
            )
        return response

    # -- operations ---------------------------------------------------------

    def _dispatch(self, payload: Dict) -> Dict:
        protocol.check_version(payload)
        op = payload.get("op")
        if op == "upload":
            return self._op_upload(payload)
        if op == "predict":
            return self._op_predict(payload)
        if op == "stats":
            return self._op_stats()
        if op == "health":
            return self._op_health()
        raise protocol.ProtocolError(
            f"unknown operation {op!r}; this server speaks {protocol.OPS}"
        )

    def _op_upload(self, payload: Dict) -> Dict:
        program = payload.get("program")
        dataset = payload.get("dataset")
        if not isinstance(program, str) or not isinstance(dataset, str):
            raise protocol.ProtocolError(
                "upload needs string 'program' and 'dataset' fields"
            )
        profile = protocol.profile_from_wire(payload.get("profile"))
        epoch = self.aggregator.record_profile(program, dataset, profile)
        return protocol.ok_response(program=program, dataset=dataset, epoch=epoch)

    def _op_predict(self, payload: Dict) -> Dict:
        program = payload.get("program")
        if not isinstance(program, str):
            raise protocol.ProtocolError("predict needs a string 'program'")
        mode = payload.get("mode", "scaled")
        exclude = payload.get("exclude")
        if exclude is not None and not isinstance(exclude, str):
            raise protocol.ProtocolError("'exclude' must be a dataset name or null")
        profile, datasets, epoch = self.aggregator.predict(
            program, mode=mode, exclude=exclude
        )
        return protocol.ok_response(
            program=program,
            mode=mode,
            exclude=exclude,
            datasets=datasets,
            epoch=epoch,
            profile=protocol.profile_to_wire(profile),
        )

    def _op_stats(self) -> Dict:
        return protocol.ok_response(
            stats=self.aggregator.stats(), metrics=self.metrics.snapshot()
        )

    def _op_health(self) -> Dict:
        snapshot = self.metrics.snapshot()
        return protocol.ok_response(
            status="draining" if self._draining else "ok",
            epoch=self.aggregator.epoch,
            inflight=snapshot["queue"]["inflight"],
            uptime_s=snapshot["uptime_s"],
        )
