"""Exception hierarchy for the ``repro`` library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch library failures with a single ``except`` clause while
still being able to discriminate the precise failure mode.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class TimeDomainError(ReproError):
    """A time value or interval is outside the graph's lifetime, or an
    operation mixes incompatible time domains."""


class EdgeNotPresentError(ReproError):
    """An edge traversal was scheduled at a time where the presence
    function of the edge is 0."""

    def __init__(self, edge, time) -> None:
        super().__init__(f"edge {edge!r} is not present at time {time}")
        self.edge = edge
        self.time = time


class InvalidJourneyError(ReproError):
    """A journey violates the feasibility rules of its waiting semantics
    (edge absent, non-contiguous hops, negative waiting, or waiting beyond
    the allowed bound)."""


class SemanticsError(ReproError):
    """An operation was asked to run under an unknown or inapplicable
    waiting semantics (e.g. a negative waiting bound)."""


class AutomatonError(ReproError):
    """A structural problem in an automaton definition (unknown state,
    symbol outside the alphabet, missing initial state, ...)."""


class RegexSyntaxError(AutomatonError):
    """The regular-expression parser rejected its input."""

    def __init__(self, pattern: str, position: int, message: str) -> None:
        super().__init__(f"invalid regex {pattern!r} at position {position}: {message}")
        self.pattern = pattern
        self.position = position


class MachineError(ReproError):
    """A structural problem in a Turing/counter machine definition."""


class MachineTimeoutError(MachineError):
    """A machine exceeded its step budget without halting.

    Deciders use this to distinguish "rejected" from "did not answer":
    a timeout never silently counts as rejection.
    """

    def __init__(self, steps: int) -> None:
        super().__init__(f"machine did not halt within {steps} steps")
        self.steps = steps


class ConstructionError(ReproError):
    """A paper construction received arguments outside its domain of
    validity (e.g. non-distinct primes for the Figure 1 graph)."""


class ExtractionError(ReproError):
    """Wait-language extraction was attempted on a TVG without a finite
    lifetime or declared period, where the time-expansion would be
    unbounded."""


class SimulationError(ReproError):
    """The discrete-event simulator detected an inconsistency (event in
    the past, unknown node, message to absent neighbour, ...)."""


class TraceFormatError(ReproError):
    """A TVG trace file could not be parsed."""

    def __init__(self, line_number: int, message: str) -> None:
        super().__init__(f"trace parse error on line {line_number}: {message}")
        self.line_number = line_number


class ServiceError(ReproError):
    """A query-service request was malformed or cannot be answered
    (unknown operation, unserializable presence, bad semantics string)."""


class RateLimitError(ServiceError):
    """A request was refused by admission control — the per-client
    sliding-window rate limit or the server-wide in-flight cap.

    ``retry_after`` is the server's back-off hint in seconds (how long
    until the client's oldest windowed timestamp expires, or a small
    constant for in-flight rejections).  The connection stays open and
    usable; rejection is a structured frame, never a drop.
    """

    def __init__(self, message: str, retry_after: float | None = None) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class PlanMissError(ServiceError):
    """A sweep worker was sent a fingerprint-only block job for a plan
    it does not hold (never cached, or evicted from its bounded LRU).

    The one *recoverable* worker error: the executor answers it by
    re-shipping the full plan exactly once; anything else — including a
    second miss on the very connection that just received the plan —
    fails the job into the local re-sweep like any other fault.
    """


#: What a failed request may raise and still be answered ``ok: false``:
#: ``MemoryError`` is a window too large to allocate.
REQUEST_ERRORS = (ReproError, KeyError, TypeError, ValueError, MemoryError)
