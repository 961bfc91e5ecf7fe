"""Presence functions ``rho : T -> {0, 1}``.

A presence function says whether an edge is available at a given date.
The paper allows *arbitrary computable* presence functions — Table 1 uses
schedules like "present iff ``t = p^i q^(i-1)``" — so the representation
must admit black-box callables while still giving journey search the two
queries it needs:

* :meth:`PresenceFunction.next_present` — earliest available date at or
  after ``t`` (the *wait* primitive), and
* :meth:`PresenceFunction.support` — all available dates in a window
  (the time-expansion primitive of wait-language extraction).

Structured presences (intervals, periodic patterns) answer both exactly;
black-box callables answer by bounded scanning and refuse unbounded
questions instead of looping forever.

Presences are immutable.  :func:`periodic_presence` interns its result,
so every edge on the same ``(residues mod period, period)`` schedule
shares one object, as every static edge shares :func:`always`.
"""

from __future__ import annotations

import operator
import weakref
from typing import Callable, Iterable

from repro.core.intervals import Interval, IntervalSet
from repro.errors import TimeDomainError


class PresenceFunction:
    """Base class for presence functions.

    Subclasses implement :meth:`__call__`; the scanning fallbacks for
    :meth:`next_present` and :meth:`support` work for any subclass, and
    structured subclasses override them with exact, scan-free versions.
    """

    def __call__(self, time: int) -> bool:
        raise NotImplementedError

    def next_present(self, time: int, limit: int | None = None) -> int | None:
        """Earliest date ``t' >= time`` with ``rho(t') = 1``.

        ``limit`` is an exclusive search bound.  The black-box fallback
        must scan, so it raises :class:`TimeDomainError` when no limit is
        given rather than risk an infinite loop.
        """
        if limit is None:
            raise TimeDomainError(
                f"{type(self).__name__} needs an explicit search limit for "
                "next_present; only structured presences can answer unbounded "
                "queries"
            )
        for candidate in range(time, limit):
            if self(candidate):
                return candidate
        return None

    def support(self, within: Interval) -> IntervalSet:
        """All dates of ``within`` at which the presence is 1."""
        return IntervalSet.from_times(t for t in within.times() if self(t))

    # -- combinators ----------------------------------------------------------

    def shifted(self, delta: int) -> "PresenceFunction":
        """Presence translated in time: new(t) = old(t - delta)."""
        return _ShiftedPresence(self, delta)

    def dilated(self, factor: int) -> "PresenceFunction":
        """Sparse time dilation (Theorem 2.3).

        The new function is present at ``t`` iff ``t`` is a multiple of
        ``factor`` and the original is present at ``t // factor``.  Events
        keep their order but are spaced ``factor`` apart, so waiting less
        than ``factor`` units opens no transition that a direct journey
        would not already have.
        """
        if factor <= 0:
            raise TimeDomainError(f"dilation factor must be positive, got {factor}")
        return _DilatedPresence(self, factor)

    def union(self, other: "PresenceFunction") -> "PresenceFunction":
        """Present whenever either operand is."""
        return _CombinedPresence(self, other, any, "|")

    def intersect(self, other: "PresenceFunction") -> "PresenceFunction":
        """Present only when both operands are."""
        return _CombinedPresence(self, other, all, "&")

    def __or__(self, other: "PresenceFunction") -> "PresenceFunction":
        return self.union(other)

    def __and__(self, other: "PresenceFunction") -> "PresenceFunction":
        return self.intersect(other)


class _AlwaysPresence(PresenceFunction):
    """Present at every date (a static edge)."""

    def __call__(self, time: int) -> bool:
        return True

    def next_present(self, time: int, limit: int | None = None) -> int | None:
        if limit is not None and time >= limit:
            return None
        return time

    def support(self, within: Interval) -> IntervalSet:
        return IntervalSet([within])

    def __repr__(self) -> str:
        return "always()"


class _NeverPresence(PresenceFunction):
    """Never present (a deleted edge)."""

    def __call__(self, time: int) -> bool:
        return False

    def next_present(self, time: int, limit: int | None = None) -> int | None:
        return None

    def support(self, within: Interval) -> IntervalSet:
        return IntervalSet()

    def __repr__(self) -> str:
        return "never()"


class IntervalPresence(PresenceFunction):
    """Presence given by an explicit :class:`IntervalSet`."""

    def __init__(self, intervals: IntervalSet) -> None:
        self.intervals = intervals

    def __call__(self, time: int) -> bool:
        return time in self.intervals

    def next_present(self, time: int, limit: int | None = None) -> int | None:
        found = self.intervals.next_time_in(time)
        if found is None or (limit is not None and found >= limit):
            return None
        return found

    def support(self, within: Interval) -> IntervalSet:
        return self.intervals.intersect(IntervalSet([within]))

    def __repr__(self) -> str:
        return f"IntervalPresence({self.intervals!r})"


class PeriodicPresence(PresenceFunction):
    """Presence repeating with a fixed period.

    ``pattern`` lists the residues (mod ``period``) at which the edge is
    present; e.g. ``PeriodicPresence({0, 1}, 5)`` is present at
    0, 1, 5, 6, 10, 11, ...  Periodic presences make a TVG eligible for
    exact wait-language extraction.
    """

    def __init__(self, pattern: Iterable[int], period: int) -> None:
        if period <= 0:
            raise TimeDomainError(f"period must be positive, got {period}")
        self.period = period
        self.pattern = frozenset(r % period for r in pattern)
        self._sorted = tuple(sorted(self.pattern))

    def __call__(self, time: int) -> bool:
        return time % self.period in self.pattern

    def next_present(self, time: int, limit: int | None = None) -> int | None:
        if not self._sorted:
            return None
        base = time - (time % self.period)
        residue = time % self.period
        for r in self._sorted:
            if r >= residue:
                found = base + r
                break
        else:
            found = base + self.period + self._sorted[0]
        if limit is not None and found >= limit:
            return None
        return found

    def support(self, within: Interval) -> IntervalSet:
        if not self._sorted:
            return IntervalSet()
        first_period = within.start // self.period
        last_period = (within.end - 1) // self.period if within.end > within.start else first_period
        times = []
        for k in range(first_period, last_period + 1):
            for r in self._sorted:
                t = k * self.period + r
                if t in within:
                    times.append(t)
        return IntervalSet.from_times(times)

    def __repr__(self) -> str:
        return f"PeriodicPresence({set(self._sorted)!r}, period={self.period})"


class FunctionPresence(PresenceFunction):
    """Presence given by an arbitrary predicate ``T -> bool``.

    This is the fully general case the paper's constructions need
    (Table 1's prime-power schedules, the Gödel clocks of Theorem 2.1).
    Unbounded queries are refused; callers must bound their scans.
    """

    def __init__(self, predicate: Callable[[int], bool], label: str | None = None) -> None:
        self.predicate = predicate
        self.label = label or getattr(predicate, "__name__", "predicate")

    def __call__(self, time: int) -> bool:
        return bool(self.predicate(time))

    def __repr__(self) -> str:
        return f"FunctionPresence({self.label})"


class _ShiftedPresence(PresenceFunction):
    def __init__(self, inner: PresenceFunction, delta: int) -> None:
        self.inner = inner
        self.delta = delta

    def __call__(self, time: int) -> bool:
        return self.inner(time - self.delta)

    def next_present(self, time: int, limit: int | None = None) -> int | None:
        inner_limit = None if limit is None else limit - self.delta
        found = self.inner.next_present(time - self.delta, inner_limit)
        return None if found is None else found + self.delta

    def support(self, within: Interval) -> IntervalSet:
        return self.inner.support(within.shift(-self.delta)).shift(self.delta)

    def __repr__(self) -> str:
        return f"{self.inner!r}.shifted({self.delta})"


class _DilatedPresence(PresenceFunction):
    def __init__(self, inner: PresenceFunction, factor: int) -> None:
        self.inner = inner
        self.factor = factor

    def __call__(self, time: int) -> bool:
        if time % self.factor != 0:
            return False
        return self.inner(time // self.factor)

    def next_present(self, time: int, limit: int | None = None) -> int | None:
        # First multiple of factor at or after `time`.
        inner_start = -(-time // self.factor)
        inner_limit = None if limit is None else -(-limit // self.factor)
        found = self.inner.next_present(inner_start, inner_limit)
        if found is None:
            return None
        result = found * self.factor
        if limit is not None and result >= limit:
            return None
        return result

    def support(self, within: Interval) -> IntervalSet:
        inner_start = -(-within.start // self.factor)
        inner_end = -(-within.end // self.factor)
        inner = self.inner.support(Interval(inner_start, inner_end))
        return IntervalSet.from_times(
            t * self.factor for t in inner.times() if t * self.factor in within
        )

    def __repr__(self) -> str:
        return f"{self.inner!r}.dilated({self.factor})"


class _CombinedPresence(PresenceFunction):
    def __init__(
        self,
        left: PresenceFunction,
        right: PresenceFunction,
        reducer: Callable[[tuple[bool, bool]], bool],
        symbol: str,
    ) -> None:
        self.left = left
        self.right = right
        self.reducer = reducer
        self.symbol = symbol

    def __call__(self, time: int) -> bool:
        return self.reducer((self.left(time), self.right(time)))

    def support(self, within: Interval) -> IntervalSet:
        left = self.left.support(within)
        right = self.right.support(within)
        if self.symbol == "|":
            return left.union(right)
        return left.intersect(right)

    def __repr__(self) -> str:
        return f"({self.left!r} {self.symbol} {self.right!r})"


# -- public constructors ------------------------------------------------------

_ALWAYS = _AlwaysPresence()
_NEVER = _NeverPresence()


def always() -> PresenceFunction:
    """The constant-true presence (a static edge)."""
    return _ALWAYS


def never() -> PresenceFunction:
    """The constant-false presence."""
    return _NEVER


def _integer(value: object, what: str) -> int:
    """``value`` as a plain int (numpy ints included); anything that is
    not an integer, a float above all, is refused rather than truncated
    somewhere downstream."""
    try:
        return operator.index(value)
    except TypeError:
        raise TimeDomainError(f"{what} must be an integer, got {value!r}") from None


def interval_presence(pairs: Iterable[tuple[int, int]]) -> PresenceFunction:
    """Presence on the union of half-open ``(start, end)`` intervals."""
    return IntervalPresence(
        IntervalSet.from_pairs(
            (_integer(a, "an interval start"), _integer(b, "an interval end"))
            for a, b in pairs
        )
    )


def at_times(times: Iterable[int]) -> PresenceFunction:
    """Presence at exactly the given dates."""
    dates = (_integer(t, "a date") for t in times)
    return IntervalPresence(IntervalSet.from_times(dates))


#: (sorted residues, period) -> the one live presence on that schedule.
_PERIODIC: weakref.WeakValueDictionary[tuple, PeriodicPresence] = (
    weakref.WeakValueDictionary()
)


def periodic_presence(pattern: Iterable[int], period: int) -> PresenceFunction:
    """Presence at the given residues modulo ``period``.

    Interned: equal schedules, whatever the order, repeats or range of
    the residues given, return one shared object while any holder keeps
    it alive.  Two threads racing on a new schedule may each build one;
    both are correct.
    """
    period = _integer(period, "a period")
    if period <= 0:
        raise TimeDomainError(f"period must be positive, got {period}")
    key = (tuple(sorted({_integer(r, "a residue") % period for r in pattern})), period)
    found = _PERIODIC.get(key)
    if found is None:
        found = _PERIODIC[key] = PeriodicPresence(*key)
    return found


def function_presence(
    predicate: Callable[[int], bool], label: str | None = None
) -> PresenceFunction:
    """Presence defined by an arbitrary predicate on dates."""
    return FunctionPresence(predicate, label)


def pattern_presence(pattern: str, periodic: bool = True) -> PresenceFunction:
    """Presence drawn as a timeline string: ``'#'`` on, ``'.'`` off.

    The inverse of :func:`repro.core.render.render_schedule`'s cells.
    With ``periodic=True`` (default) the pattern repeats forever with
    period ``len(pattern)``; otherwise it describes dates 0..len-1 only.

    >>> p = pattern_presence("#..#")
    >>> [t for t in range(8) if p(t)]
    [0, 3, 4, 7]
    """
    if not pattern or set(pattern) - {"#", "."}:
        raise TimeDomainError(
            f"pattern must be a non-empty string of '#' and '.', got {pattern!r}"
        )
    on_dates = [i for i, cell in enumerate(pattern) if cell == "#"]
    if periodic:
        return periodic_presence(on_dates, len(pattern))
    return IntervalPresence(IntervalSet.from_times(on_dates))
