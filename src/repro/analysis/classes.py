"""The TVG class hierarchy of Casteigts–Flocchini–Quattrociocchi–Santoro.

The paper's reference [1] ("Time-varying graphs and dynamic networks",
ADHOC-NOW 2011) organizes dynamic networks into classes by recurrence
and connectivity guarantees.  This module implements *bounded-window
checkers* for the classes the library's experiments speak about:

====  ===============================  =============================================
tag   name                             checked property (over the window)
====  ===============================  =============================================
C1    round connectivity               every node reaches every other and back
C2    temporal connectivity (TC)       every ordered pair joined by a journey
C3    recurrent connectivity           TC holds from every start date in the window
C5    recurrent edges                  every footprint edge reappears throughout
C6    bounded-recurrent edges (B)      gaps between appearances bounded by B
C7    periodic edges (P)               the whole schedule repeats with period P
C9    always-connected snapshots       every snapshot is connected
C10   T-interval connectivity          some spanning connected subgraph stable T steps
====  ===============================  =============================================

Infinite-horizon recurrence is undecidable for black-box schedules, so
every checker takes an explicit window and answers for it; periodic
graphs get exact answers by construction.  The classifier reports the
set of classes a graph exhibits on the window — the inclusion structure
(C7 ⊆ C6 ⊆ C5, C9 ⊆ C2, ...) is asserted by the tests.

Every checker and :func:`classify` accept an ``engine=`` hook.  With a
:class:`~repro.core.engine.TemporalEngine`, each TC check is one
batched arrival sweep instead of ``n`` interpretive searches, and the
schedule checkers (C5–C10) read per-edge contact dates off the flat
contact arrays of one sweep plan — black-box presences memoized by the
:class:`~repro.core.index.LazyContactCache`, so repeated
classifications never re-call a predicate on a date it already
answered.  C9/C10 then label connected components in index space, all
dates at once, without networkx.  Verdicts are identical either way
(proven by the differential oracle suite); the ``engine=None``
checkers build networkx snapshots and stay the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.analysis.reachability import reachability_ratio
from repro.core.intervals import Interval
from repro.core.semantics import WAIT
from repro.core.snapshots import is_connected_at, snapshot
from repro.core.time_domain import require_window
from repro.core.tvg import TimeVaryingGraph
from repro.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover — typing only
    from repro.core.engine import TemporalEngine


def is_temporally_connected_from(
    graph: TimeVaryingGraph,
    start: int,
    end: int,
    engine: "TemporalEngine | None" = None,
) -> bool:
    """C2 on the window: TC from date ``start`` with horizon ``end``."""
    require_window(start, end)
    return reachability_ratio(graph, start, WAIT, horizon=end, engine=engine) == 1.0


def is_round_connected(
    graph: TimeVaryingGraph,
    start: int,
    end: int,
    engine: "TemporalEngine | None" = None,
) -> bool:
    """C1: every node can reach every other *and hear back* in the window.

    Equivalent to TC of the window followed by TC of what remains after
    the forward journeys arrive; checked conservatively as TC from
    ``start`` and TC from the window midpoint.  A width-1 window leaves
    no room for a reply (latencies are positive, so forward journeys
    arrive after its only departure date): only the trivial single-node
    graph is round connected there.
    """
    require_window(start, end)
    midpoint = (start + end) // 2
    if midpoint == start:
        return graph.node_count <= 1
    return is_temporally_connected_from(
        graph, start, midpoint, engine=engine
    ) and is_temporally_connected_from(graph, midpoint, end, engine=engine)


def is_recurrently_connected(
    graph: TimeVaryingGraph,
    start: int,
    end: int,
    stride: int = 1,
    engine: "TemporalEngine | None" = None,
) -> bool:
    """C3 on the window: TC holds from every sampled start date.

    The samples are ``range(start, max(start + 1, end - 1), stride)``.
    A node ready at ``t`` can wait until any ``t' >= t``, so TC from
    ``t'`` to the fixed horizon implies TC from ``t``: the conjunction
    over the samples is TC from the last one, one check.
    """
    require_window(start, end)
    if stride <= 0:
        raise ReproError(f"stride must be positive, got {stride}")
    last = range(start, max(start + 1, end - 1), stride)[-1]
    return is_temporally_connected_from(graph, last, end, engine=engine)


def _window_contacts(
    graph: TimeVaryingGraph,
    start: int,
    end: int,
    engine: "TemporalEngine | None",
) -> list[tuple[object, list[int]]]:
    """Each edge paired with its sorted contact dates on ``[start, end)``.

    With an engine the dates come off the ``edge_ptr``/``dep`` CSR of
    the window's WAIT sweep plan — black-box edges answered by the
    memoizing :class:`~repro.core.index.LazyContactCache` — otherwise
    from the interpretive presence support.
    """
    if engine is not None:
        # Looked up per call, as the engine's sweeps do, so a wrapper
        # installed on the module sees every plan build.
        from repro.core.parallel import build_sweep_plan

        engine.require_graph(graph, "a class checker")
        _nodes, plan = build_sweep_plan(engine, start, WAIT, end)
        dates, bounds = plan.dep.tolist(), plan.edge_ptr.tolist()
        edges = engine.index_for(start, end).edge_list
        return [
            (edge, dates[lo:hi]) for edge, lo, hi in zip(edges, bounds, bounds[1:])
        ]
    window = Interval(start, end)
    return [
        (edge, sorted(edge.presence.support(window).times()))
        for edge in graph.edges
    ]


def edges_recurrent(
    graph: TimeVaryingGraph,
    start: int,
    end: int,
    engine: "TemporalEngine | None" = None,
) -> bool:
    """C5 on the window: each footprint edge is present in both halves.

    The finite-window proxy for "appears infinitely often": an edge that
    is live early but silent through the whole second half fails.
    """
    require_window(start, end)
    midpoint = (start + end) // 2
    for _edge, dates in _window_contacts(graph, start, end, engine):
        early = bool(dates) and dates[0] < midpoint
        late = bool(dates) and dates[-1] >= midpoint
        if early != late:
            return False
    return True


def edges_bounded_recurrent(
    graph: TimeVaryingGraph,
    start: int,
    end: int,
    bound: int,
    engine: "TemporalEngine | None" = None,
) -> bool:
    """C6 on the window: every gap between appearances is <= ``bound``.

    Edges silent on the whole window are vacuously fine (not part of the
    footprint); edges with any appearance must reappear within the bound
    up to the window edge.
    """
    require_window(start, end)
    if bound <= 0:
        raise ReproError(f"recurrence bound must be positive, got {bound}")
    for _edge, dates in _window_contacts(graph, start, end, engine):
        if not dates:
            continue
        if dates[0] - start > bound:
            return False
        for before, after in zip(dates, dates[1:]):
            if after - before > bound:
                return False
        if (end - 1) - dates[-1] > bound:
            return False
    return True


def edges_periodic(
    graph: TimeVaryingGraph,
    period: int,
    start: int,
    end: int,
    engine: "TemporalEngine | None" = None,
) -> bool:
    """C7 on the window: the schedule repeats with the given period.

    Checked as: the contact dates of ``[start, end - period)`` shifted
    by the period are exactly the contact dates of
    ``[start + period, end)``.
    """
    require_window(start, end)
    if period <= 0:
        raise ReproError(f"period must be positive, got {period}")
    for _edge, dates in _window_contacts(graph, start, end, engine):
        shifted = [t + period for t in dates if t < end - period]
        late = [t for t in dates if t >= start + period]
        if shifted != late:
            return False
    return True


def _component_labels(size: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Per vertex of the undirected graph on ``range(size)`` with edges
    ``(u[k], v[k])``: the smallest vertex of its component.

    Each round pulls both ends of every edge down to the smaller label
    and then jumps every label to its label's label.  A label is always
    a vertex of the same component and never above its own vertex, so
    the fixpoint, where every edge's ends agree, is the component
    minimum.
    """
    label = np.arange(size)
    while True:
        low = np.minimum(label[u], label[v])
        pulled = label.copy()
        np.minimum.at(pulled, u, low)
        np.minimum.at(pulled, v, low)
        pulled = pulled[pulled]
        if np.array_equal(pulled, label):
            return label
        label = pulled


def _stable_connectivity(
    graph: TimeVaryingGraph,
    start: int,
    end: int,
    engine: "TemporalEngine",
) -> Callable[[int], bool]:
    """``connected(length)``: whether, from every date ``t0`` of the
    window with ``[t0, t0 + length)`` inside it, the ``(source,
    target)`` pairs present at every date of ``[t0, t0 + length)``
    connect the graph (undirected view).  ``length`` 1 is C9's snapshot
    test.

    The window's WAIT plan gives each edge's dates in index space.  A
    pair's *run* at a date is how many consecutive dates it stays
    present from there, so the pairs stable over ``[t0, t0 + length)``
    are those with a run of at least ``length`` at ``t0``.  One
    component labelling then covers every start at once, on vertices
    ``(t0, node)``.  A start with fewer than ``n - 1`` pairs cannot be
    connected, so the labelling never sees more vertices than twice the
    pairs.
    """
    from repro.core.parallel import build_sweep_plan

    engine.require_graph(graph, "a class checker")
    _nodes, plan = build_sweep_plan(engine, start, WAIT, end)
    n, width = plan.n, end - start
    source = np.empty(len(plan.target_idx), dtype=np.int64)
    source[plan.out_edge_idx] = np.repeat(np.arange(n), np.diff(plan.out_ptr))
    edge = np.repeat(np.arange(len(source)), np.diff(plan.edge_ptr))
    pair, date = source[edge] * n + plan.target_idx[edge], plan.dep - start
    order = np.lexsort((date, pair))
    pair, date = pair[order], date[order]
    fresh = np.ones(len(pair), dtype=bool)  # drop parallel edges' repeats
    fresh[1:] = (pair[1:] != pair[:-1]) | (date[1:] != date[:-1])
    pair, date = pair[fresh], date[fresh]
    # A run ends where the next entry is another pair or skips a date.
    last = np.ones(len(pair), dtype=bool)
    last[:-1] = (pair[1:] != pair[:-1]) | (date[1:] != date[:-1] + 1)
    run_end = np.flatnonzero(last)
    position = np.arange(len(pair))
    runs = run_end[np.searchsorted(run_end, position)] - position + 1

    def connected(length: int) -> bool:
        if n <= 1:
            return True
        keep = runs >= length
        starts = width - length + 1
        day = date[keep]
        if (
            len(day) < (n - 1) * starts
            or np.bincount(day, minlength=starts).min() < n - 1
        ):
            return False
        base = day * n
        labels = _component_labels(
            starts * n, base + pair[keep] // n, base + pair[keep] % n
        )
        first = np.arange(0, starts * n, n)[:, None]
        return bool(np.all(labels.reshape(starts, n) == first))

    return connected


def snapshots_always_connected(
    graph: TimeVaryingGraph,
    start: int,
    end: int,
    engine: "TemporalEngine | None" = None,
) -> bool:
    """C9: every snapshot in the window is (weakly) connected."""
    require_window(start, end)
    if engine is None:
        return all(is_connected_at(graph, t) for t in range(start, end))
    return _stable_connectivity(graph, start, end, engine)(1)


def interval_connectivity(
    graph: TimeVaryingGraph,
    start: int,
    end: int,
    engine: "TemporalEngine | None" = None,
) -> int:
    """The largest T such that the graph is T-interval connected (C10).

    T-interval connectivity (Kuhn–Lynch–Oshman): in every window of T
    consecutive dates some *stable* connected spanning subgraph exists.
    Returns 0 when even single snapshots disconnect somewhere.
    """
    require_window(start, end)
    if engine is None:
        if not snapshots_always_connected(graph, start, end):
            return 0

        def connected(length: int) -> bool:
            return all(
                _stable_connected(graph, t0, t0 + length)
                for t0 in range(start, end - length + 1)
            )
    else:
        connected = _stable_connectivity(graph, start, end, engine)
        if not connected(1):
            return 0
    best = 1
    for length in range(2, end - start + 1):
        if not connected(length):
            break
        best = length
    return best


def _stable_connected(graph: TimeVaryingGraph, start: int, end: int) -> bool:
    """Whether the intersection of the snapshots over [start, end) is
    connected (undirected view)."""
    import networkx as nx

    stable = nx.Graph()
    stable.add_nodes_from(graph.nodes)
    first = snapshot(graph, start)
    for u, v in first.edges():
        if all(snapshot(graph, t).has_edge(u, v) for t in range(start + 1, end)):
            stable.add_edge(u, v)
    if stable.number_of_nodes() <= 1:
        return True
    return nx.is_connected(stable)


@dataclass(frozen=True)
class ClassReport:
    """Which classes a TVG exhibits on a window."""

    window: tuple[int, int]
    classes: frozenset[str]
    interval_connectivity: int

    def __contains__(self, tag: str) -> bool:
        return tag in self.classes

    def __str__(self) -> str:
        members = ", ".join(sorted(self.classes)) or "(none)"
        return (
            f"classes on [{self.window[0]}, {self.window[1]}): {members}; "
            f"T-interval connectivity = {self.interval_connectivity}"
        )


def classify(
    graph: TimeVaryingGraph,
    start: int,
    end: int,
    recurrence_bound: int | None = None,
    period: int | None = None,
    engine: "TemporalEngine | None" = None,
) -> ClassReport:
    """Run all checkers and report the classes exhibited on the window.

    ``recurrence_bound`` and ``period`` default to window/4 and the
    graph's declared period respectively.  ``engine`` accelerates the
    connectivity checkers (C1/C2/C3) through the batched arrival sweep
    — run wherever the engine's executor puts it, at most four sweeps
    per call — and the schedule checkers through the window's flat
    contact arrays.
    """
    require_window(start, end)
    if engine is not None:
        # Compile the whole window up front: the first checker asks only
        # for C3's [last sample, end), and TC(start, mid) would then
        # widen the index with a second compile.
        engine.require_graph(graph, "classify")
        engine.index_for(start, end)
    bound = recurrence_bound if recurrence_bound is not None else max(1, (end - start) // 4)
    declared = period if period is not None else graph.period
    tags: set[str] = set()
    if is_recurrently_connected(
        graph, start, end, stride=max(1, (end - start) // 8), engine=engine
    ):
        tags.add("C3")
    if is_round_connected(graph, start, end, engine=engine):
        tags.add("C1")
    # C3 includes TC from start, and C1's TC(start, mid) holds at the
    # longer horizon too: C2 needs its own sweep only without either.
    if tags & {"C1", "C3"} or is_temporally_connected_from(
        graph, start, end, engine=engine
    ):
        tags.add("C2")
    if edges_recurrent(graph, start, end, engine=engine):
        tags.add("C5")
    if edges_bounded_recurrent(graph, start, end, bound, engine=engine):
        tags.add("C6")
    if declared is not None and edges_periodic(
        graph, declared, start, end, engine=engine
    ):
        tags.add("C7")
    t_interval = interval_connectivity(graph, start, end, engine=engine)
    if t_interval >= 1:
        # interval_connectivity is positive exactly when every snapshot
        # is connected, so C9 needs no second pass over the window.
        tags.add("C9")
        tags.add("C10")
    return ClassReport(
        window=(start, end),
        classes=frozenset(tags),
        interval_connectivity=t_interval,
    )
