"""Integer interval sets.

Presence functions over discrete time are most usefully described as
unions of half-open intervals ``[a, b)``.  :class:`IntervalSet` keeps such
a union normalized (sorted, disjoint, non-adjacent) and supports the
queries journey search needs — membership and *next presence at or after
t* — in logarithmic time, plus the boolean algebra used by generators and
transforms.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro.errors import TimeDomainError


@dataclass(frozen=True, order=True)
class Interval:
    """A half-open integer interval ``[start, end)``; empty if start >= end.

    >>> Interval(2, 5).length
    3
    """

    start: int
    end: int

    @property
    def empty(self) -> bool:
        return self.start >= self.end

    @property
    def length(self) -> int:
        return max(0, self.end - self.start)

    def __contains__(self, time: object) -> bool:
        return isinstance(time, int) and self.start <= time < self.end

    def overlaps(self, other: "Interval") -> bool:
        """Whether the two intervals share at least one integer."""
        return self.start < other.end and other.start < self.end

    def touches(self, other: "Interval") -> bool:
        """Whether the two intervals overlap or are adjacent."""
        return self.start <= other.end and other.start <= self.end

    def intersect(self, other: "Interval") -> "Interval":
        return Interval(max(self.start, other.start), min(self.end, other.end))

    def shift(self, delta: int) -> "Interval":
        return Interval(self.start + delta, self.end + delta)

    def dilate(self, factor: int) -> "Interval":
        """Scale both endpoints by ``factor`` (time dilation, Theorem 2.3)."""
        if factor <= 0:
            raise TimeDomainError(f"dilation factor must be positive, got {factor}")
        return Interval(self.start * factor, self.end * factor)

    def times(self) -> range:
        return range(self.start, self.end)


class IntervalSet:
    """A normalized union of half-open integer intervals.

    The constructor accepts intervals in any order, overlapping or
    adjacent; they are merged into the canonical minimal representation.

    >>> s = IntervalSet([Interval(0, 3), Interval(3, 5), Interval(8, 9)])
    >>> list(s)
    [Interval(start=0, end=5), Interval(start=8, end=9)]
    >>> 4 in s, 5 in s
    (True, False)
    >>> s.next_time_in(5)
    8
    """

    __slots__ = ("_starts", "_ends")

    def __init__(self, intervals: Iterable[Interval] = ()) -> None:
        merged: list[Interval] = []
        for interval in sorted(iv for iv in intervals if not iv.empty):
            if merged and interval.start <= merged[-1].end:
                last = merged[-1]
                merged[-1] = Interval(last.start, max(last.end, interval.end))
            else:
                merged.append(interval)
        self._starts: Sequence[int] = [iv.start for iv in merged]
        self._ends: Sequence[int] = [iv.end for iv in merged]

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]]) -> "IntervalSet":
        """Build from ``(start, end)`` tuples."""
        return cls(Interval(a, b) for a, b in pairs)

    @classmethod
    def from_times(cls, times: Iterable[int]) -> "IntervalSet":
        """Build from individual integer dates."""
        return cls(Interval(t, t + 1) for t in times)

    # -- basic queries ---------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._starts)

    def __len__(self) -> int:
        return len(self._starts)

    def __iter__(self) -> Iterator[Interval]:
        for start, end in zip(self._starts, self._ends):
            yield Interval(start, end)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return list(self._starts) == list(other._starts) and list(self._ends) == list(
            other._ends
        )

    def __hash__(self) -> int:
        return hash((tuple(self._starts), tuple(self._ends)))

    def __repr__(self) -> str:
        body = ", ".join(f"[{a},{b})" for a, b in zip(self._starts, self._ends))
        return f"IntervalSet({body})"

    def __contains__(self, time: object) -> bool:
        if not isinstance(time, int):
            return False
        index = bisect_right(self._starts, time) - 1
        return index >= 0 and time < self._ends[index]

    @property
    def span(self) -> Interval | None:
        """Smallest single interval covering the whole set, or None if empty."""
        if not self._starts:
            return None
        return Interval(self._starts[0], self._ends[-1])

    def total_length(self) -> int:
        """Number of integer dates contained in the set."""
        return sum(e - s for s, e in zip(self._starts, self._ends))

    def times(self) -> Iterator[int]:
        """Iterate all contained dates in increasing order."""
        for start, end in zip(self._starts, self._ends):
            yield from range(start, end)

    def next_time_in(self, time: int) -> int | None:
        """Earliest date ``>= time`` inside the set, or None.

        This is the primitive behind the *wait* semantics: a message
        buffered at a node asks each incident edge for its next
        availability.
        """
        index = bisect_right(self._starts, time) - 1
        if index >= 0 and time < self._ends[index]:
            return time
        if index + 1 < len(self._starts):
            return self._starts[index + 1]
        return None

    # -- boolean algebra -------------------------------------------------------

    def union(self, other: "IntervalSet") -> "IntervalSet":
        return IntervalSet(list(self) + list(other))

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        result: list[Interval] = []
        i = j = 0
        mine, theirs = list(self), list(other)
        while i < len(mine) and j < len(theirs):
            cut = mine[i].intersect(theirs[j])
            if not cut.empty:
                result.append(cut)
            if mine[i].end <= theirs[j].end:
                i += 1
            else:
                j += 1
        return IntervalSet(result)

    def complement(self, within: Interval) -> "IntervalSet":
        """Dates of ``within`` not in this set."""
        gaps: list[Interval] = []
        cursor = within.start
        for interval in self:
            if interval.end <= within.start:
                continue
            if interval.start >= within.end:
                break
            if interval.start > cursor:
                gaps.append(Interval(cursor, min(interval.start, within.end)))
            cursor = max(cursor, interval.end)
        if cursor < within.end:
            gaps.append(Interval(cursor, within.end))
        return IntervalSet(gaps)

    def difference(self, other: "IntervalSet") -> "IntervalSet":
        span = self.span
        if span is None:
            return IntervalSet()
        return self.intersect(other.complement(span))

    # -- transforms --------------------------------------------------------------

    def shift(self, delta: int) -> "IntervalSet":
        return IntervalSet(iv.shift(delta) for iv in self)

    def dilate(self, factor: int) -> "IntervalSet":
        """Scale all dates by ``factor``.

        Note dilation of an interval set is *not* the set of dilated
        member dates: ``[a, b)`` maps to ``[a*factor, b*factor)``, which
        contains dates that are not multiples of ``factor``.  The paper's
        Theorem 2.3 construction instead needs the sparse variant,
        :meth:`dilate_sparse`.
        """
        return IntervalSet(iv.dilate(factor) for iv in self)

    def dilate_sparse(self, factor: int) -> "IntervalSet":
        """Map each contained date ``t`` to the single date ``t*factor``.

        This is the Theorem 2.3 time-expansion: the schedule keeps the
        same events but spaced ``factor`` apart, so a waiting budget below
        ``factor`` creates no new transition choices.
        """
        if factor <= 0:
            raise TimeDomainError(f"dilation factor must be positive, got {factor}")
        return IntervalSet.from_times(t * factor for t in self.times())
