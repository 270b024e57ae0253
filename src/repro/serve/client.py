"""The profile-feedback client: blocking and resilient.

Its contract:

* **Connection reuse** — one TCP connection serves many requests; a dead
  connection is dropped and rebuilt transparently.
* **Per-request timeouts** — a hung server costs ``timeout`` seconds,
  never forever.
* **Exponential-backoff retries** — transport failures (refused, reset,
  timed out, torn mid-frame) are retried on a fresh connection with
  exponentially growing delays; *server-reported* errors are not retried,
  the server already answered.
* **Graceful degradation** — with a ``fallback`` database attached, every
  upload is mirrored locally, and when the server stays unreachable the
  client serves ``predict`` from the mirror through the exact same
  ``database_predict`` code path the server runs — so the degraded answer
  is byte-identical to what the healthy service would have said.
"""
from __future__ import annotations

import dataclasses
import socket
import time
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.prediction.combine import database_predict
from repro.profiling.branch_profile import BranchProfile
from repro.profiling.database import ProfileDatabase
from repro.serve import protocol
from repro.vm.counters import RunResult


class ServiceUnavailable(ConnectionError):
    """The server could not be reached within the retry budget."""


class ServiceError(RuntimeError):
    """The server answered with ``ok: false``."""


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """How transport failures are retried.

    ``attempts`` counts total tries (first one included); the delay before
    retry ``k`` is ``backoff * 2**(k-1)``, capped at ``max_backoff``.
    """

    attempts: int = 4
    backoff: float = 0.05
    max_backoff: float = 1.0

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {self.attempts}")

    def delays(self) -> Iterator[float]:
        """The sleep before each retry (one fewer than ``attempts``)."""
        delay = self.backoff
        for _ in range(self.attempts - 1):
            yield min(delay, self.max_backoff)
            delay *= 2


@dataclasses.dataclass
class Prediction:
    """A served (or locally computed) summary prediction."""

    profile: BranchProfile
    datasets: List[str]
    mode: str
    epoch: Optional[int]
    #: True when the answer came from the offline fallback path.
    degraded: bool = False


class ProfileClient:
    """Blocking client with connection reuse, timeouts, retries, fallback."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        timeout: float = 5.0,
        retry: RetryPolicy = RetryPolicy(),
        fallback: Optional[ProfileDatabase] = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retry = retry
        self.fallback = fallback
        self._sleep = sleep
        self._sock: Optional[socket.socket] = None
        #: Transport failures seen so far (for tests and observability).
        self.transport_failures = 0
        #: True once a request was served by the offline fallback.
        self.degraded = False

    # -- transport ----------------------------------------------------------

    def _connect(self) -> socket.socket:
        if self._sock is None:
            self._sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout
            )
        return self._sock

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None

    def __enter__(self) -> "ProfileClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Send one request, retrying transport failures; returns the
        ``ok`` response payload or raises ``ServiceError`` /
        ``ServiceUnavailable``."""
        delays = self.retry.delays()
        last_error: Optional[Exception] = None
        for attempt in range(self.retry.attempts):
            if attempt:
                self._sleep(next(delays))
            try:
                sock = self._connect()
                protocol.write_frame(sock, payload)
                response = protocol.read_frame(sock)
                if response is None:
                    raise ConnectionResetError("server closed the connection")
            except (OSError, protocol.ProtocolError) as exc:
                # Covers refused/reset/timeout and torn frames alike; the
                # connection state is unknown, so drop it and retry fresh.
                self.transport_failures += 1
                last_error = exc
                self.close()
                continue
            if not response.get("ok"):
                raise ServiceError(response.get("error", "unspecified error"))
            return response
        raise ServiceUnavailable(
            f"{self.host}:{self.port} unreachable after "
            f"{self.retry.attempts} attempts: {last_error}"
        )

    # -- operations ---------------------------------------------------------

    def upload_profile(
        self, program: str, dataset: str, profile: BranchProfile
    ) -> Optional[int]:
        """Upload one run's counters; returns the server epoch, or ``None``
        when the server was unreachable and the fallback absorbed it."""
        if self.fallback is not None:
            # Mirror a *copy*: the fallback database accumulates, and
            # callers keep ownership of the profile they passed in.
            self.fallback.record_profile(
                program, dataset, BranchProfile.from_dict(profile.to_dict())
            )
        try:
            response = self.request(
                protocol.request(
                    "upload",
                    program=program,
                    dataset=dataset,
                    profile=protocol.profile_to_wire(profile),
                )
            )
        except ServiceUnavailable:
            if self.fallback is None:
                raise
            self.degraded = True
            return None
        return response["epoch"]

    def upload_run(self, run: RunResult, dataset: str) -> Optional[int]:
        return self.upload_profile(
            run.program, dataset, BranchProfile.from_run(run)
        )

    def predict(
        self,
        program: str,
        mode: str = "scaled",
        exclude: Optional[str] = None,
    ) -> Prediction:
        try:
            response = self.request(
                protocol.request(
                    "predict", program=program, mode=mode, exclude=exclude
                )
            )
        except ServiceUnavailable:
            if self.fallback is None:
                raise
            self.degraded = True
            profile, datasets = database_predict(
                self.fallback, program, mode=mode, exclude=exclude
            )
            return Prediction(
                profile=profile,
                datasets=datasets,
                mode=mode,
                epoch=None,
                degraded=True,
            )
        return Prediction(
            profile=protocol.profile_from_wire(response["profile"]),
            datasets=list(response["datasets"]),
            mode=response["mode"],
            epoch=response["epoch"],
        )

    def stats(self) -> Dict[str, Any]:
        return self.request(protocol.request("stats"))

    def health(self) -> Dict[str, Any]:
        return self.request(protocol.request("health"))
