"""Time-series views of a dynamic network.

Curves over the study window — density, snapshot components, and the
*reachability growth curve* ``r(t)`` (the fraction of ordered pairs
already joined by a journey arriving by ``t``).  The growth curve is the
continuous version of the E6 benchmark: buffered floods ride ``r_wait``,
bufferless ones ``r_nowait``, and the area between the two curves is the
integrated value of waiting on that network.

Engine route
------------

``reachability_growth`` and ``value_of_waiting`` accept an ``engine=``
hook.  With a :class:`~repro.core.engine.TemporalEngine` the whole curve
comes from ONE batched all-pairs arrival sweep
(:meth:`~repro.core.engine.TemporalEngine.arrival_offsets`): the matrix
of earliest-arrival offsets is computed once and its off-diagonal
arrivals counted per date — instead of ``n`` independent interpretive
searches re-run per source.  Results are identical to the interpretive
path (the differential oracle suite in
``tests/properties/test_property_analysis.py`` proves it under all three
waiting semantics).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable

import numpy as np

from repro.core.semantics import NO_WAIT, WAIT, WaitingSemantics
from repro.core.snapshots import snapshot
from repro.core.time_domain import require_window
from repro.core.traversal import reachable_states
from repro.core.tvg import TimeVaryingGraph

if TYPE_CHECKING:  # pragma: no cover — typing only
    from repro.core.engine import TemporalEngine


def density_curve(graph: TimeVaryingGraph, start: int, end: int) -> list[tuple[int, float]]:
    """Per-date fraction of edges present."""
    require_window(start, end)
    if graph.edge_count == 0:
        return [(t, 0.0) for t in range(start, end)]
    return [
        (t, sum(1 for _ in graph.edges_at(t)) / graph.edge_count)
        for t in range(start, end)
    ]


def component_curve(graph: TimeVaryingGraph, start: int, end: int) -> list[tuple[int, int]]:
    """Per-date number of weakly-connected snapshot components."""
    import networkx as nx

    require_window(start, end)
    return [
        (t, nx.number_weakly_connected_components(snapshot(graph, t)))
        for t in range(start, end)
    ]


def growth_curve_from_arrivals(
    arrival: np.ndarray, start: int, end: int
) -> list[tuple[int, float]]:
    """The growth curve derived from an all-pairs arrival matrix.

    ``arrival`` is either form the engine answers in: the compact
    offsets from ``start`` of
    :meth:`~repro.core.engine.TemporalEngine.arrival_offsets` (an
    unsigned dtype whose max marks unreached pairs) or the int64 dates
    of :meth:`~repro.core.engine.TemporalEngine.arrival_matrix`, told
    apart by dtype.  Dates are counted, not sorted: the arrivals before
    ``end`` — offsets below ``min(end - start, sentinel)``, so a window
    wider than the dtype never counts the sentinel — are
    ``bincount``-ed by offset, and the cumulative sum is the number of
    pairs joined by each date, less the diagonal's, which is removed by
    position.  Shared by :func:`reachability_growth` and the query
    service, which reuses one cached matrix across query families.
    """
    n = arrival.shape[0]
    if n <= 1:
        return [(t, 1.0) for t in range(start, end)]
    if end <= start:
        return []
    if arrival.dtype.kind == "u":
        # Offsets from start; the dtype's max marks unreached pairs.
        base, limit = 0, min(end - start, int(np.iinfo(arrival.dtype).max))
    else:
        # int64 dates; UNREACHED is never below end.  An earlier date
        # joins from the first date on.
        base, limit = start, end

    def counts(values: np.ndarray) -> np.ndarray:
        early = values[values < limit].astype(np.int64, copy=False)
        return np.bincount(np.maximum(early, base) - base, minlength=end - start)

    joined = np.cumsum(counts(arrival) - counts(np.diagonal(arrival)))
    total_pairs = n * (n - 1)
    return [
        (t, count / total_pairs) for t, count in zip(range(start, end), joined.tolist())
    ]


def reachability_growth(
    graph: TimeVaryingGraph,
    start: int,
    end: int,
    semantics: WaitingSemantics = WAIT,
    engine: "TemporalEngine | None" = None,
) -> list[tuple[int, float]]:
    """``r(t)``: fraction of ordered pairs joined by a journey arriving
    by date ``t`` (journeys start at ``start``).

    Monotone non-decreasing by construction; ``r(end-1) == 1.0`` iff the
    window is temporally connected under the semantics.

    With ``engine=`` the curve derives from one batched arrival sweep:
    the off-diagonal earliest arrivals are counted per date, O(n^2)
    total instead of a full reachability computation per prefix length.
    """
    require_window(start, end)
    nodes = list(graph.nodes)
    n = len(nodes)
    if n <= 1:
        return [(t, 1.0) for t in range(start, end)]
    total_pairs = n * (n - 1)
    if engine is not None:
        engine.require_graph(graph, "reachability_growth")
        _nodes, offsets = engine.arrival_offsets(start, semantics, horizon=end)
        return growth_curve_from_arrivals(offsets, start, end)
    earliest: dict[tuple[Hashable, Hashable], int] = {}
    for source in nodes:
        states = reachable_states(graph, [(source, start)], semantics, horizon=end)
        best: dict[Hashable, int] = {}
        for node, time in states:
            if node == source:
                continue
            if node not in best or time < best[node]:
                best[node] = time
        for node, time in best.items():
            earliest[(source, node)] = time
    curve = []
    for t in range(start, end):
        joined = sum(1 for time in earliest.values() if time <= t)
        curve.append((t, joined / total_pairs))
    return curve


@dataclass(frozen=True)
class WaitingValue:
    """The integrated gap between the wait and no-wait growth curves."""

    wait_curve: list[tuple[int, float]]
    nowait_curve: list[tuple[int, float]]

    @property
    def area(self) -> float:
        """Sum over dates of ``r_wait(t) - r_nowait(t)`` (>= 0)."""
        return sum(
            w - n for (_t, w), (_t2, n) in zip(self.wait_curve, self.nowait_curve)
        )

    @property
    def final_gap(self) -> float:
        """``r_wait - r_nowait`` at the window end."""
        return self.wait_curve[-1][1] - self.nowait_curve[-1][1]

    @property
    def wait_saturation_time(self) -> int | None:
        """First date at which ``r_wait`` reaches 1.0, or None."""
        for t, value in self.wait_curve:
            if value >= 1.0:
                return t
        return None


def value_of_waiting(
    graph: TimeVaryingGraph,
    start: int,
    end: int,
    engine: "TemporalEngine | None" = None,
) -> WaitingValue:
    """Both growth curves and their integrated gap.

    With ``engine=`` the two curves cost exactly two batched arrival
    sweeps (one per semantics), run wherever the engine's executor
    puts them.
    """
    return WaitingValue(
        wait_curve=reachability_growth(graph, start, end, WAIT, engine=engine),
        nowait_curve=reachability_growth(graph, start, end, NO_WAIT, engine=engine),
    )
