"""Discrete time domain and graph lifetimes.

The paper studies TVGs over a temporal domain ``T`` (``N`` for discrete
systems).  This reproduction uses discrete integer time throughout: every
construction in the paper (Figure 1, the Gödel-clock encodings of Theorem
2.1, the dilation of Theorem 2.3) is stated over integer dates, and a
discrete domain keeps journey search exact.

Infinity is represented by :data:`INFINITY` (``math.inf``), so a lifetime
may be right-unbounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import TimeDomainError

#: Right-open upper bound for unbounded lifetimes.
INFINITY: float = math.inf

#: Wire dates and constant latencies lie strictly inside ``±MAX_DATE``,
#: so ``departure + latency`` always fits the engine's int64 arrays,
#: below their ``UNREACHED`` sentinel (``2**63 - 1``).
MAX_DATE: int = 2**62


def require_window(start: int, end: int) -> None:
    """Validate the half-open study window ``[start, end)``.

    The analysis layer's shared precondition: every bounded-window
    checker and curve works over ``[start, end)`` and an empty window
    would silently produce vacuous answers, so it raises
    :class:`TimeDomainError` instead.

    >>> require_window(0, 5)
    >>> require_window(5, 5)
    Traceback (most recent call last):
        ...
    repro.errors.TimeDomainError: empty window [5, 5)
    """
    if end <= start:
        raise TimeDomainError(f"empty window [{start}, {end})")


@dataclass(frozen=True)
class Lifetime:
    """The time span ``[start, end)`` over which a TVG is studied.

    ``end`` may be :data:`INFINITY` for systems observed forever.  The
    interval is half-open: ``end`` itself is not a usable date.

    >>> lt = Lifetime(0, 10)
    >>> 9 in lt, 10 in lt
    (True, False)
    """

    start: int = 0
    end: float = INFINITY

    def __post_init__(self) -> None:
        if not isinstance(self.start, int):
            raise TimeDomainError(f"lifetime start must be an int, got {self.start!r}")
        if self.end != INFINITY and not isinstance(self.end, int):
            raise TimeDomainError(
                f"lifetime end must be an int or INFINITY, got {self.end!r}"
            )
        if self.end != INFINITY and self.end < self.start:
            raise TimeDomainError(
                f"lifetime end {self.end} precedes start {self.start}"
            )

    @property
    def bounded(self) -> bool:
        """Whether the lifetime has a finite right endpoint."""
        return self.end != INFINITY

    @property
    def duration(self) -> float:
        """Length of the lifetime (may be :data:`INFINITY`)."""
        return self.end - self.start

    def __contains__(self, time: object) -> bool:
        if not isinstance(time, int):
            return False
        return self.start <= time and time < self.end

    def times(self) -> range:
        """Iterate every date in a bounded lifetime.

        Raises :class:`TimeDomainError` on unbounded lifetimes, where the
        iteration would never terminate.
        """
        if not self.bounded:
            raise TimeDomainError("cannot enumerate an unbounded lifetime")
        return range(self.start, int(self.end))

    def clamp(self, horizon: int) -> "Lifetime":
        """Return this lifetime truncated to end no later than ``horizon``."""
        if horizon < self.start:
            raise TimeDomainError(
                f"horizon {horizon} precedes lifetime start {self.start}"
            )
        end = horizon if not self.bounded else min(int(self.end), horizon)
        return Lifetime(self.start, end)

    def require(self, time: int) -> None:
        """Raise :class:`TimeDomainError` unless ``time`` lies in the span."""
        if time not in self:
            raise TimeDomainError(
                f"time {time} outside lifetime [{self.start}, {self.end})"
            )
