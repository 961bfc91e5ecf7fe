"""Snapshots and footprints.

A *snapshot* ``G_t`` is the static digraph of edges present at date ``t``;
the *footprint* is the union of snapshots over a window.  The paper's
motivating observation — the network "may actually be disconnected at
every time instant" while still being temporally connected — is a
statement about snapshots versus journeys, and the simulation benchmarks
verify it through these functions.

Snapshots are returned as :mod:`networkx` multigraphs so the whole static
toolbox (components, shortest paths) applies directly.  networkx is
imported inside the functions that build them, so importing this module
does not load it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.core.intervals import Interval
from repro.core.tvg import TimeVaryingGraph

if TYPE_CHECKING:  # pragma: no cover — typing only
    import networkx as nx


def snapshot(graph: TimeVaryingGraph, time: int) -> nx.MultiDiGraph:
    """The static digraph of edges present at ``time``.

    All TVG nodes are included, even isolated ones; edge data carries the
    key, label, and that date's latency.
    """
    import networkx as nx

    static = nx.MultiDiGraph()
    static.add_nodes_from(graph.nodes)
    for edge in graph.edges_at(time):
        static.add_edge(
            edge.source,
            edge.target,
            key=edge.key,
            label=edge.label,
            latency=edge.latency(time),
        )
    return static


def snapshots(
    graph: TimeVaryingGraph, start: int, end: int
) -> Iterator[tuple[int, nx.MultiDiGraph]]:
    """The snapshot sequence over ``[start, end)``."""
    for time in range(start, end):
        yield time, snapshot(graph, time)


def footprint(graph: TimeVaryingGraph, start: int, end: int) -> nx.MultiDiGraph:
    """The union of snapshots over ``[start, end)``.

    Each TVG edge appears at most once, annotated with its presence
    support within the window.
    """
    import networkx as nx

    static = nx.MultiDiGraph()
    static.add_nodes_from(graph.nodes)
    window = Interval(start, end)
    for edge in graph.edges:
        support = edge.presence.support(window)
        if support:
            static.add_edge(
                edge.source,
                edge.target,
                key=edge.key,
                label=edge.label,
                support=support,
            )
    return static


def is_connected_at(graph: TimeVaryingGraph, time: int) -> bool:
    """Whether the snapshot at ``time`` is weakly connected."""
    if graph.node_count <= 1:
        return True
    import networkx as nx

    return nx.is_weakly_connected(snapshot(graph, time))


def always_disconnected(graph: TimeVaryingGraph, start: int, end: int) -> bool:
    """Whether *every* snapshot in ``[start, end)`` is disconnected.

    True for the highly dynamic networks the paper targets: no instant
    offers end-to-end connectivity, yet journeys may still exist.
    """
    return all(not is_connected_at(graph, t) for t in range(start, end))


def presence_density(graph: TimeVaryingGraph, start: int, end: int) -> float:
    """Fraction of (edge, date) slots that are present over the window."""
    slots = graph.edge_count * (end - start)
    if slots == 0:
        return 0.0
    window = Interval(start, end)
    present = sum(edge.presence.support(window).total_length() for edge in graph.edges)
    return present / slots
