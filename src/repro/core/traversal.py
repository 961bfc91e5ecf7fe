"""Journey search over time-varying graphs.

All search is over *temporal states* ``(node, time)`` — "the walker (or
message) is at ``node``, ready to depart from date ``time`` onward".  The
waiting semantics decides which departure dates are reachable from a
state:

* no-wait: only ``time`` itself;
* wait: every date in the edge's presence support up to the horizon;
* wait[d]: every present date in ``[time, time + d]``.

Every function takes an explicit ``horizon`` (exclusive upper time
bound).  TVGs may live forever and presence functions may be black-box
callables, so unbounded search is never attempted implicitly.

Every search here runs over one *successor kernel* — "all feasible
single-hop moves out of a temporal state".  The default kernel is the
interpretive one (per-edge presence scans, the ground-truth oracle);
passing ``engine=`` a :class:`~repro.core.engine.TemporalEngine` swaps
in the compiled contact-sequence kernel while the search algorithm —
and therefore the result — stays identical.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Callable, Hashable, Iterable, Iterator

from repro.core.edges import Edge
from repro.core.intervals import Interval
from repro.core.journeys import Hop, Journey
from repro.core.semantics import NO_WAIT, WaitingSemantics
from repro.core.tvg import TimeVaryingGraph
from repro.errors import TimeDomainError

if TYPE_CHECKING:  # pragma: no cover — import cycle guard, typing only
    from repro.core.engine import TemporalEngine

#: A successor kernel: ``(node, ready) -> [(edge, departure, arrival)]``.
StepFn = Callable[[Hashable, int], "list[tuple[Edge, int, int]]"]


def edge_departures(
    edge: Edge,
    ready: int,
    semantics: WaitingSemantics,
    horizon: int,
) -> Iterator[int]:
    """Feasible departure dates on ``edge`` for a walker ready at ``ready``.

    Dates are yielded in increasing order and are all < ``horizon``.
    """
    if ready >= horizon:
        return
    if semantics.is_no_wait:
        if edge.present_at(ready):
            yield ready
        return
    latest = semantics.latest_departure(ready, horizon)
    support = edge.presence.support(Interval(ready, latest))
    yield from support.times()


def successors(
    graph: TimeVaryingGraph,
    node: Hashable,
    ready: int,
    semantics: WaitingSemantics = NO_WAIT,
    horizon: int | None = None,
    engine: "TemporalEngine | None" = None,
) -> Iterator[tuple[Edge, int, int]]:
    """All feasible single-hop moves from the state ``(node, ready)``.

    Yields ``(edge, departure, arrival)`` triples.  ``horizon`` bounds
    departure dates; it defaults to the graph's (finite) lifetime end.
    With ``engine=`` the moves come from the compiled kernel instead of
    presence scans (same triples, same order).
    """
    horizon = _resolve_horizon(graph, horizon)
    yield from _step_fn(graph, semantics, horizon, engine)(node, ready)


def _step_fn(
    graph: TimeVaryingGraph,
    semantics: WaitingSemantics,
    horizon: int,
    engine: "TemporalEngine | None",
) -> StepFn:
    """Bind the successor kernel the searches below iterate over."""
    if engine is not None:
        engine.require_graph(graph, "a traversal")
        return lambda node, ready: engine.successors(node, ready, semantics, horizon)

    def step(node: Hashable, ready: int) -> list[tuple[Edge, int, int]]:
        return [
            (edge, departure, departure + edge.latency(departure))
            for edge in graph.out_edges(node)
            for departure in edge_departures(edge, ready, semantics, horizon)
        ]

    return step


def _resolve_horizon(graph: TimeVaryingGraph, horizon: int | None) -> int:
    if horizon is not None:
        return horizon
    if graph.lifetime.bounded:
        return int(graph.lifetime.end)
    raise TimeDomainError(
        "an explicit horizon is required on graphs with unbounded lifetime"
    )


def enumerate_journeys(
    graph: TimeVaryingGraph,
    sources: Iterable[Hashable] | Hashable,
    start_time: int,
    semantics: WaitingSemantics = NO_WAIT,
    horizon: int | None = None,
    max_hops: int = 16,
    targets: Iterable[Hashable] | None = None,
) -> Iterator[Journey]:
    """Every feasible journey from the sources, in DFS order.

    A journey is yielded for each feasible hop sequence of length 1 to
    ``max_hops`` departing no earlier than ``start_time``.  When
    ``targets`` is given, only journeys ending there are yielded (but the
    search still explores through other nodes).

    The number of journeys is exponential in ``max_hops`` in the worst
    case; this enumerator is the ground-truth oracle that the language
    machinery is checked against, not the fast path.
    """
    horizon = _resolve_horizon(graph, horizon)
    if isinstance(sources, (str, bytes)) or not isinstance(sources, Iterable):
        sources = [sources]
    target_set = None if targets is None else set(targets)

    def expand(prefix: list[Hop], node: Hashable, ready: int) -> Iterator[Journey]:
        if len(prefix) >= max_hops:
            return
        for edge in graph.out_edges(node):
            for departure in edge_departures(edge, ready, semantics, horizon):
                hop = Hop(edge, departure)
                prefix.append(hop)
                if target_set is None or edge.target in target_set:
                    yield Journey(list(prefix))
                yield from expand(prefix, edge.target, hop.arrival)
                prefix.pop()

    for source in sources:
        yield from expand([], source, start_time)


def reachable_states(
    graph: TimeVaryingGraph,
    sources: Iterable[tuple[Hashable, int]],
    semantics: WaitingSemantics = NO_WAIT,
    horizon: int | None = None,
    max_hops: int | None = None,
    engine: "TemporalEngine | None" = None,
) -> set[tuple[Hashable, int]]:
    """All temporal states ``(node, arrival)`` reachable from the sources.

    Each source is a ``(node, ready_time)`` pair (arrival 0 hops in).
    The returned set includes the sources themselves.  States are
    deduplicated, so the search runs in time polynomial in the number of
    distinct ``(node, time)`` pairs rather than the number of journeys.
    """
    horizon = _resolve_horizon(graph, horizon)
    step = _step_fn(graph, semantics, horizon, engine)
    seen: set[tuple[Hashable, int]] = set()
    frontier: list[tuple[Hashable, int, int]] = []
    for node, ready in sources:
        if (node, ready) not in seen:
            seen.add((node, ready))
            frontier.append((node, ready, 0))
    while frontier:
        node, ready, hops = frontier.pop()
        if max_hops is not None and hops >= max_hops:
            continue
        for edge, _departure, arrival in step(node, ready):
            state = (edge.target, arrival)
            if state not in seen:
                seen.add(state)
                frontier.append((edge.target, arrival, hops + 1))
    return seen


def reachable_nodes(
    graph: TimeVaryingGraph,
    source: Hashable,
    start_time: int,
    semantics: WaitingSemantics = NO_WAIT,
    horizon: int | None = None,
    engine: "TemporalEngine | None" = None,
) -> set[Hashable]:
    """Nodes reachable from ``source`` by a feasible journey (source included)."""
    states = reachable_states(
        graph, [(source, start_time)], semantics, horizon, engine=engine
    )
    return {node for node, _time in states}


def can_reach(
    graph: TimeVaryingGraph,
    source: Hashable,
    target: Hashable,
    start_time: int,
    semantics: WaitingSemantics = NO_WAIT,
    horizon: int | None = None,
    engine: "TemporalEngine | None" = None,
) -> bool:
    """Whether a feasible journey connects ``source`` to ``target``."""
    return target in reachable_nodes(
        graph, source, start_time, semantics, horizon, engine=engine
    )


def earliest_arrivals(
    graph: TimeVaryingGraph,
    source: Hashable,
    start_time: int,
    semantics: WaitingSemantics = NO_WAIT,
    horizon: int | None = None,
    engine: "TemporalEngine | None" = None,
) -> dict[Hashable, int]:
    """Earliest arrival date at every reachable node (*foremost* journeys).

    A Dijkstra-style search over temporal states ordered by time.  The
    result maps each reachable node to the earliest date a feasible
    journey from ``(source, start_time)`` can arrive there; the source
    maps to ``start_time``.  Exact even for non-FIFO latencies, because
    every feasible departure up to the horizon is examined.
    """
    horizon = _resolve_horizon(graph, horizon)
    if engine is not None and semantics.unbounded:
        # Unbounded waiting admits an exact node-level Dijkstra (later
        # visits of a node can never depart anywhere its earliest visit
        # could not), much cheaper than the temporal-state search.
        engine.require_graph(graph, "a traversal")
        return engine.earliest_arrivals_unbounded(source, start_time, horizon)
    step = _step_fn(graph, semantics, horizon, engine)
    best: dict[Hashable, int] = {source: start_time}
    expanded: set[tuple[Hashable, int]] = set()
    queue: list[tuple[int, int, Hashable]] = [(start_time, 0, source)]
    tie = 0
    while queue:
        ready, _t, node = heapq.heappop(queue)
        if (node, ready) in expanded:
            continue
        expanded.add((node, ready))
        for edge, _departure, arrival in step(node, ready):
            if arrival < best.get(edge.target, arrival + 1):
                best[edge.target] = arrival
            if (edge.target, arrival) not in expanded:
                tie += 1
                heapq.heappush(queue, (arrival, tie, edge.target))
    return best


def foremost_journey(
    graph: TimeVaryingGraph,
    source: Hashable,
    target: Hashable,
    start_time: int,
    semantics: WaitingSemantics = NO_WAIT,
    horizon: int | None = None,
    max_hops: int = 64,
    engine: "TemporalEngine | None" = None,
) -> Journey | None:
    """A journey arriving at ``target`` as early as any feasible journey can.

    Returns ``None`` when ``target`` is unreachable.  The search keeps
    parent pointers on temporal states, so the journey it rebuilds is
    guaranteed feasible and foremost.
    """
    horizon = _resolve_horizon(graph, horizon)
    step = _step_fn(graph, semantics, horizon, engine)
    parents: dict[tuple[Hashable, int], tuple[Hashable, int, Hop] | None] = {
        (source, start_time): None
    }
    queue: list[tuple[int, int, Hashable, int]] = [(start_time, 0, source, 0)]
    tie = 0
    while queue:
        ready, _t, node, hops = heapq.heappop(queue)
        if node == target and ready > start_time:
            return _rebuild(parents, (node, ready))
        if node == target and node == source and ready == start_time:
            # Zero-hop "journey" is not a journey (needs >= 1 hop); keep going.
            pass
        if hops >= max_hops:
            continue
        for edge, departure, arrival in step(node, ready):
            state = (edge.target, arrival)
            if state not in parents:
                parents[state] = (node, ready, Hop(edge, departure))
                tie += 1
                heapq.heappush(queue, (arrival, tie, edge.target, hops + 1))
    return None


def _rebuild(
    parents: dict[tuple[Hashable, int], tuple[Hashable, int, Hop] | None],
    state: tuple[Hashable, int],
) -> Journey:
    hops: list[Hop] = []
    cursor: tuple[Hashable, int] | None = state
    while cursor is not None:
        entry = parents[cursor]
        if entry is None:
            break
        node, ready, hop = entry
        hops.append(hop)
        cursor = (node, ready)
    hops.reverse()
    return Journey(hops)
