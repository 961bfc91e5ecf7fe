"""Admission control and latency telemetry for the service front end.

Three small, independently testable pieces the asyncio server composes
around its dispatcher:

* :class:`RateLimiter` — per-client sliding-window rate limiting over
  windowed timestamps.  Each client key holds a deque of admission
  times; a request is admitted when fewer than ``limit`` timestamps
  remain inside the trailing window.  Rejections come with a
  ``retry_after`` hint: the time until the client's oldest windowed
  timestamp expires.
* :class:`AdmissionGate` — a server-wide cap on in-flight requests
  (admitted into dispatch, response not yet written).  Purely a
  counter; the caller pairs :meth:`~AdmissionGate.try_acquire` with
  :meth:`~AdmissionGate.release` in a ``finally``.
* :class:`LatencyRecorder` — bounded per-operation reservoirs of
  request latencies with on-demand p50/p95/p99, so the ``stats`` op can
  report tail behaviour without unbounded memory.

Everything here is synchronous and allocation-light: these sit on the
hot path of every request the event loop serializes, so they must never
block or grow without bound.  Clocks are injectable for deterministic
tests.
"""

from __future__ import annotations

import math
import time
from collections import deque
from typing import Callable, Hashable

#: The retry hint attached to in-flight (gate) rejections, which have
#: no windowed timestamp to derive a precise back-off from.
GATE_RETRY_AFTER: float = 0.05


class RateLimiter:
    """Sliding-window request admission, one timestamp deque per client.

    ``limit`` is the per-window cap and ``window`` the sliding window
    in seconds.  ``clock`` is any monotonic float-returning callable —
    tests inject a fake to step time deterministically.
    """

    def __init__(
        self,
        limit: int,
        window: float = 1.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if limit <= 0:
            raise ValueError(f"limit must be positive, got {limit}")
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self.limit = limit
        self.window = window
        self._clock = clock
        self._stamps: dict[Hashable, deque[float]] = {}
        self.admitted = 0
        self.rejected = 0

    def admit(self, client: Hashable) -> float | None:
        """Charge one request to ``client`` now.

        Returns ``None`` when admitted (the timestamp is recorded), or
        the ``retry_after`` hint in seconds when the client is at its
        limit (nothing is recorded — rejected requests don't
        extend the window against the client).
        """
        now = self._clock()
        stamps = self._stamps.setdefault(client, deque())
        cutoff = now - self.window
        while stamps and stamps[0] <= cutoff:
            stamps.popleft()
        if len(stamps) >= self.limit:
            self.rejected += 1
            return max(0.0, stamps[0] + self.window - now)
        stamps.append(now)
        self.admitted += 1
        return None

    def forget(self, client: Hashable) -> None:
        """Drop a client's window state (its connection closed)."""
        self._stamps.pop(client, None)

    @property
    def tracked_clients(self) -> int:
        return len(self._stamps)

    def stats(self) -> dict:
        """A JSON-able snapshot of the limiter counters."""
        return {
            "limit": self.limit,
            "window_seconds": self.window,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "tracked_clients": self.tracked_clients,
        }

    def __repr__(self) -> str:
        return (
            f"RateLimiter({self.limit}/{self.window}s, "
            f"{self.admitted} admitted, {self.rejected} rejected)"
        )


class AdmissionGate:
    """A cap on concurrently in-flight requests across all connections.

    ``try_acquire`` admits when fewer than ``max_inflight`` slots are
    held and returns whether it did; the caller must ``release`` every
    successful acquire (and only those).  ``peak`` records the highest
    concurrency ever admitted, so load tests can verify the gate was
    actually exercised.
    """

    def __init__(self, max_inflight: int) -> None:
        if max_inflight <= 0:
            raise ValueError(
                f"max_inflight must be positive, got {max_inflight}"
            )
        self.max_inflight = max_inflight
        self.inflight = 0
        self.peak = 0
        self.admitted = 0
        self.rejected = 0

    def try_acquire(self) -> bool:
        if self.inflight >= self.max_inflight:
            self.rejected += 1
            return False
        self.inflight += 1
        self.admitted += 1
        if self.inflight > self.peak:
            self.peak = self.inflight
        return True

    def release(self) -> None:
        if self.inflight <= 0:
            raise ValueError("release() without a matching try_acquire()")
        self.inflight -= 1

    def stats(self) -> dict:
        return {
            "max_inflight": self.max_inflight,
            "inflight": self.inflight,
            "peak": self.peak,
            "admitted": self.admitted,
            "rejected": self.rejected,
        }

    def __repr__(self) -> str:
        return (
            f"AdmissionGate({self.inflight}/{self.max_inflight} in flight, "
            f"peak {self.peak})"
        )


def percentile(sorted_samples: list[float], q: float) -> float:
    """The ``q``-quantile (0 < q <= 1) of an already-sorted sample list
    by the nearest-rank method (the convention load gates expect: p99
    of 100 samples is the 99th smallest, never an interpolation above
    the observed maximum)."""
    if not sorted_samples:
        raise ValueError("percentile of an empty sample set")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must be in (0, 1], got {q}")
    rank = math.ceil(q * len(sorted_samples))
    return sorted_samples[max(0, rank - 1)]


class LatencyRecorder:
    """Bounded per-op latency reservoirs with on-demand percentiles.

    Each operation keeps its most recent ``max_samples`` latencies in a
    deque (old samples fall off, so the histogram tracks *current*
    behaviour under long uptimes) plus a monotone total count.
    :meth:`stats` renders p50/p95/p99 per op.
    """

    def __init__(self, max_samples: int = 512) -> None:
        if max_samples <= 0:
            raise ValueError(f"max_samples must be positive, got {max_samples}")
        self.max_samples = max_samples
        self._samples: dict[str, deque[float]] = {}
        self._counts: dict[str, int] = {}

    def record(self, op: str, seconds: float) -> None:
        reservoir = self._samples.get(op)
        if reservoir is None:
            reservoir = self._samples[op] = deque(maxlen=self.max_samples)
        reservoir.append(seconds)
        self._counts[op] = self._counts.get(op, 0) + 1

    def percentiles(self, op: str) -> dict | None:
        """``{"count", "p50", "p95", "p99"}`` for one op, or None if it
        was never recorded."""
        reservoir = self._samples.get(op)
        if not reservoir:
            return None
        ordered = sorted(reservoir)
        return {
            "count": self._counts[op],
            "p50": percentile(ordered, 0.50),
            "p95": percentile(ordered, 0.95),
            "p99": percentile(ordered, 0.99),
        }

    def stats(self) -> dict:
        """Per-op percentile blocks for every recorded operation."""
        return {
            op: self.percentiles(op) for op in sorted(self._samples)
        }

    def __repr__(self) -> str:
        total = sum(self._counts.values())
        return f"LatencyRecorder({len(self._samples)} ops, {total} samples)"
