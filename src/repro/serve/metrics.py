"""Service observability: request/error counters, latency histograms,
the in-flight gauge.

Everything is in-process and lock-guarded (the server's connection
threads and test harnesses may all touch it), exported as one
JSON-ready dict through the ``stats`` operation and the
``repro-serve stats --metrics`` dump.  Latencies go into fixed
log-spaced buckets, so percentile estimates are bounded-error and the
export stays O(buckets) no matter how many requests were served.
"""
from __future__ import annotations

import bisect
import threading
import time
from typing import Dict, List, Optional

#: Histogram bucket upper bounds, in seconds (log-spaced 10us..10s, plus
#: a catch-all).  A recorded latency lands in the first bucket whose
#: bound is >= the sample.
LATENCY_BUCKETS = (
    0.00001, 0.0000316, 0.0001, 0.000316, 0.001, 0.00316,
    0.01, 0.0316, 0.1, 0.316, 1.0, 3.16, 10.0, float("inf"),
)


class LatencyHistogram:
    """Fixed-bucket latency histogram with percentile estimation."""

    def __init__(self) -> None:
        self.counts = [0] * len(LATENCY_BUCKETS)
        self.total = 0
        self.sum_seconds = 0.0
        self.max_seconds = 0.0

    def observe(self, seconds: float) -> None:
        index = bisect.bisect_left(LATENCY_BUCKETS, seconds)
        self.counts[min(index, len(self.counts) - 1)] += 1
        self.total += 1
        self.sum_seconds += seconds
        if seconds > self.max_seconds:
            self.max_seconds = seconds

    def percentile(self, fraction: float) -> Optional[float]:
        """Upper-bound estimate of the given percentile (0 < fraction <= 1);
        ``None`` with no samples.  The top catch-all bucket reports the
        observed maximum instead of infinity."""
        if not self.total:
            return None
        threshold = fraction * self.total
        seen = 0
        for index, count in enumerate(self.counts):
            seen += count
            if seen >= threshold:
                bound = LATENCY_BUCKETS[index]
                return self.max_seconds if bound == float("inf") else bound
        return self.max_seconds

    def as_dict(self) -> Dict:
        mean = self.sum_seconds / self.total if self.total else None
        return {
            "count": self.total,
            "mean_s": mean,
            "max_s": self.max_seconds if self.total else None,
            "p50_s": self.percentile(0.50),
            "p99_s": self.percentile(0.99),
            "buckets": {
                ("inf" if bound == float("inf") else f"{bound:g}"): count
                for bound, count in zip(LATENCY_BUCKETS, self.counts)
                if count
            },
        }


class ServiceMetrics:
    """Counters and gauges for one server instance."""

    def __init__(self, ops: Optional[List[str]] = None) -> None:
        self._lock = threading.Lock()
        self._started = time.monotonic()
        self.requests: Dict[str, int] = {}
        self.errors: Dict[str, int] = {}
        self.latency: Dict[str, LatencyHistogram] = {}
        self.protocol_errors = 0
        self.connections_opened = 0
        self.connections_closed = 0
        self.inflight = 0
        self.inflight_peak = 0
        for op in ops or ():
            self._ensure(op)

    def _ensure(self, op: str) -> None:
        self.requests.setdefault(op, 0)
        self.errors.setdefault(op, 0)
        self.latency.setdefault(op, LatencyHistogram())

    # -- recording ----------------------------------------------------------

    def record_request(self, op: str, seconds: float, error: bool) -> None:
        with self._lock:
            self._ensure(op)
            self.requests[op] += 1
            if error:
                self.errors[op] += 1
            self.latency[op].observe(seconds)

    def record_protocol_error(self) -> None:
        with self._lock:
            self.protocol_errors += 1

    def connection_opened(self) -> None:
        with self._lock:
            self.connections_opened += 1

    def connection_closed(self) -> None:
        with self._lock:
            self.connections_closed += 1

    def start_request(self) -> None:
        """A request is being dispatched."""
        with self._lock:
            self.inflight += 1
            self.inflight_peak = max(self.inflight_peak, self.inflight)

    def finish_request(self) -> None:
        with self._lock:
            self.inflight -= 1

    # -- export -------------------------------------------------------------

    def snapshot(self) -> Dict:
        with self._lock:
            return {
                "uptime_s": time.monotonic() - self._started,
                "requests": dict(self.requests),
                "errors": dict(self.errors),
                "protocol_errors": self.protocol_errors,
                "connections": {
                    "opened": self.connections_opened,
                    "closed": self.connections_closed,
                    "active": self.connections_opened - self.connections_closed,
                },
                "queue": {
                    "inflight": self.inflight,
                    "inflight_peak": self.inflight_peak,
                },
                "latency": {
                    op: histogram.as_dict()
                    for op, histogram in self.latency.items()
                },
            }
