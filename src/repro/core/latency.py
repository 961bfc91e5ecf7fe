"""Latency functions ``zeta : E x T -> T``.

The latency of an edge is the time a traversal takes when started at a
given date, and the paper lets it *vary with time* — Table 1's edge
``e0`` has latency ``(p - 1) * t``, which is what multiplies the clock by
``p`` and makes the Gödel-style word-in-clock encoding work.  Latencies
must be positive: a zero or negative latency would let a journey take
infinitely many edges in finite time.  :func:`constant_latency` interns
its result, so edges of equal constant latency share one object.
"""

from __future__ import annotations

import weakref
from typing import Callable, Mapping

from repro.core.time_domain import MAX_DATE
from repro.errors import TimeDomainError


class LatencyFunction:
    """Base class for latency functions.

    Subclasses implement :meth:`raw`; :meth:`__call__` wraps it with the
    positivity check so no construction can smuggle in a non-advancing
    traversal.
    """

    def raw(self, time: int) -> int:
        raise NotImplementedError

    def __call__(self, time: int) -> int:
        value = self.raw(time)
        if not isinstance(value, int):
            raise TimeDomainError(
                f"latency must be an int, got {value!r} at time {time}"
            )
        if value <= 0:
            raise TimeDomainError(
                f"latency must be positive, got {value} at time {time}"
            )
        return value

    def shifted(self, delta: int) -> "LatencyFunction":
        """Latency translated in time: new(t) = old(t - delta)."""
        return _MappedLatency(self, lambda t: t - delta, scale=1, label=f"shift {delta}")

    def dilated(self, factor: int) -> "LatencyFunction":
        """Time dilation companion to presence dilation (Theorem 2.3).

        Under sparse dilation the edge fires only at dates ``t*factor``
        and its traversal must land on the dilated image of the original
        arrival, so the latency scales by the same factor:
        ``new(t*factor) = factor * old(t)``.
        """
        if factor <= 0:
            raise TimeDomainError(f"dilation factor must be positive, got {factor}")
        return _MappedLatency(
            self, lambda t: t // factor, scale=factor, label=f"dilate {factor}"
        )


class ConstantLatency(LatencyFunction):
    """The same traversal time at every date."""

    def __init__(self, value: int) -> None:
        if type(value) is not int or not 0 < value < MAX_DATE:
            raise TimeDomainError(
                f"constant latency must be an int in [1, 2**62), got {value!r}"
            )
        self.value = value

    def raw(self, time: int) -> int:
        return self.value

    def __repr__(self) -> str:
        return f"constant_latency({self.value})"


class AffineLatency(LatencyFunction):
    """Latency ``a*t + b`` — the form Table 1 uses (``(p-1)t``)."""

    def __init__(self, slope: int, intercept: int = 0) -> None:
        self.slope = slope
        self.intercept = intercept

    def raw(self, time: int) -> int:
        return self.slope * time + self.intercept

    def __repr__(self) -> str:
        return f"affine_latency({self.slope}, {self.intercept})"


class TableLatency(LatencyFunction):
    """Latency from an explicit date -> duration table with a default."""

    def __init__(self, table: Mapping[int, int], default: int | None = None) -> None:
        self.table = dict(table)
        self.default = default

    def raw(self, time: int) -> int:
        if time in self.table:
            return self.table[time]
        if self.default is None:
            raise TimeDomainError(f"no latency tabulated for time {time} and no default")
        return self.default

    def __repr__(self) -> str:
        return f"table_latency({len(self.table)} entries, default={self.default})"


class FunctionLatency(LatencyFunction):
    """Latency from an arbitrary callable ``T -> T``."""

    def __init__(self, function: Callable[[int], int], label: str | None = None) -> None:
        self.function = function
        self.label = label or getattr(function, "__name__", "function")

    def raw(self, time: int) -> int:
        return self.function(time)

    def __repr__(self) -> str:
        return f"function_latency({self.label})"


class _MappedLatency(LatencyFunction):
    """Inner latency evaluated through a time reparameterization."""

    def __init__(
        self,
        inner: LatencyFunction,
        time_map: Callable[[int], int],
        scale: int,
        label: str,
    ) -> None:
        self.inner = inner
        self.time_map = time_map
        self.scale = scale
        self.label = label

    def raw(self, time: int) -> int:
        return self.scale * self.inner.raw(self.time_map(time))

    def __repr__(self) -> str:
        return f"{self.inner!r}.mapped({self.label})"


# -- public constructors ------------------------------------------------------


#: value -> the one live constant latency of that value.
_CONSTANT: weakref.WeakValueDictionary[int, ConstantLatency] = (
    weakref.WeakValueDictionary()
)


def constant_latency(value: int = 1) -> LatencyFunction:
    """Fixed traversal time; ``constant_latency(1)`` is the unit-latency
    default.  Interned: one shared object per value."""
    # Checked before the lookup: 1.0 and True hash and compare like 1.
    found = _CONSTANT.get(value) if type(value) is int else None
    if found is None:
        found = _CONSTANT[value] = ConstantLatency(value)
    return found


def affine_latency(slope: int, intercept: int = 0) -> LatencyFunction:
    """Latency ``slope * t + intercept``, as in Table 1 of the paper."""
    return AffineLatency(slope, intercept)


def table_latency(table: Mapping[int, int], default: int | None = None) -> LatencyFunction:
    """Latency looked up per date, with an optional default."""
    return TableLatency(table, default)


def function_latency(function: Callable[[int], int], label: str | None = None) -> LatencyFunction:
    """Latency computed by an arbitrary callable."""
    return FunctionLatency(function, label)
