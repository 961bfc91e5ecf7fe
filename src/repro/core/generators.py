"""Random and structured TVG generators.

All generators take an explicit ``rng`` (a :class:`random.Random`) or
``seed``; nothing reads global randomness.  Generators that produce
periodic schedules declare the period on the graph so the wait-language
extractor accepts them.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Hashable, Iterable, Iterator, Sequence

from repro.core.builders import coerce_latency
from repro.core.presence import at_times, periodic_presence
from repro.core.time_domain import Lifetime
from repro.core.tvg import TimeVaryingGraph
from repro.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover — typing only
    import networkx as nx


def _resolve_rng(rng: random.Random | None, seed: int | None) -> random.Random:
    if rng is not None:
        return rng
    return random.Random(seed if seed is not None else 0)


def _pairs(n: int, directed: bool) -> Iterator[tuple[int, int]]:
    """The candidate edges of the complete footprint on ``n`` nodes, in
    order, made one at a time: a list of all n**2 pairs would outweigh
    the graph drawn from them."""
    for u in range(n):
        for v in range(n) if directed else range(u + 1, n):
            if u != v:
                yield u, v


def bernoulli_tvg(
    n: int,
    horizon: int,
    density: float,
    directed: bool = False,
    latency: int = 1,
    rng: random.Random | None = None,
    seed: int | None = None,
    name: str = "bernoulli",
) -> TimeVaryingGraph:
    """Each (edge-slot, date) present independently with probability ``density``.

    The memoryless baseline dynamic network: over a complete footprint on
    ``n`` nodes, every potential edge flips its own coin at every date.
    With ``directed=False`` contacts are symmetric.
    """
    if not 0.0 <= density <= 1.0:
        raise ReproError(f"density must be in [0, 1], got {density}")
    rng = _resolve_rng(rng, seed)
    graph = TimeVaryingGraph(lifetime=Lifetime(0, horizon), name=name)
    graph.add_nodes(range(n))
    for u, v in _pairs(n, directed):
        times = [t for t in range(horizon) if rng.random() < density]
        if not times:
            continue
        presence = at_times(times)
        if directed:
            graph.add_edge(u, v, presence=presence, latency=coerce_latency(latency))
        else:
            graph.add_contact(u, v, presence=presence, latency=coerce_latency(latency))
    return graph


def edge_markovian_tvg(
    n: int,
    horizon: int,
    birth: float,
    death: float,
    directed: bool = False,
    latency: int = 1,
    rng: random.Random | None = None,
    seed: int | None = None,
    name: str = "edge-markovian",
) -> TimeVaryingGraph:
    """The edge-Markovian evolving graph.

    Each potential edge runs an independent two-state Markov chain: an
    absent edge appears next step with probability ``birth``, a present
    edge disappears with probability ``death``.  The stationary presence
    density is ``birth / (birth + death)``.  This is the standard model
    for intermittently-connected mobile networks and drives the
    store-carry-forward benchmark (E6).
    """
    for nameval, value in (("birth", birth), ("death", death)):
        if not 0.0 <= value <= 1.0:
            raise ReproError(f"{nameval} must be in [0, 1], got {value}")
    rng = _resolve_rng(rng, seed)
    graph = TimeVaryingGraph(lifetime=Lifetime(0, horizon), name=name)
    graph.add_nodes(range(n))
    stationary = birth / (birth + death) if birth + death > 0 else 0.0
    for u, v in _pairs(n, directed):
        present = rng.random() < stationary
        times = []
        for t in range(horizon):
            if present:
                times.append(t)
                present = rng.random() >= death
            else:
                present = rng.random() < birth
        if not times:
            continue
        presence = at_times(times)
        if directed:
            graph.add_edge(u, v, presence=presence, latency=coerce_latency(latency))
        else:
            graph.add_contact(u, v, presence=presence, latency=coerce_latency(latency))
    return graph


def periodic_random_tvg(
    n: int,
    period: int,
    density: float,
    directed: bool = True,
    latency: int = 1,
    labels: Sequence[str] | None = None,
    rng: random.Random | None = None,
    seed: int | None = None,
    name: str = "periodic-random",
) -> TimeVaryingGraph:
    """A random periodic TVG (each edge present at a random residue set).

    Periodicity is declared on the graph, so the result is directly
    eligible for exact wait-language extraction — this generator feeds
    the Theorem 2.2 regularity benchmark (E4).  When ``labels`` is given,
    each edge gets a uniformly random symbol.
    """
    if not 0.0 <= density <= 1.0:
        raise ReproError(f"density must be in [0, 1], got {density}")
    rng = _resolve_rng(rng, seed)
    graph = TimeVaryingGraph(period=period, name=name)
    graph.add_nodes(range(n))
    for u, v in _pairs(n, directed):
        residues = [r for r in range(period) if rng.random() < density]
        if not residues:
            continue
        presence = periodic_presence(residues, period)
        label = rng.choice(list(labels)) if labels else None
        if directed:
            graph.add_edge(
                u, v, label=label, presence=presence, latency=coerce_latency(latency)
            )
        else:
            graph.add_contact(
                u, v, label=label, presence=presence, latency=coerce_latency(latency)
            )
    return graph


def random_labeled_tvg(
    n: int,
    edge_count: int,
    alphabet: Sequence[str],
    period: int,
    density: float = 0.5,
    rng: random.Random | None = None,
    seed: int | None = None,
    name: str = "random-labeled",
) -> TimeVaryingGraph:
    """A sparse random labeled periodic TVG for automata experiments.

    Exactly ``edge_count`` directed labeled edges between uniformly drawn
    distinct endpoints, each with a random non-empty periodic schedule.
    """
    rng = _resolve_rng(rng, seed)
    if n < 2:
        raise ReproError("need at least two nodes")
    graph = TimeVaryingGraph(period=period, name=name)
    graph.add_nodes(range(n))
    for index in range(edge_count):
        u = rng.randrange(n)
        v = rng.randrange(n - 1)
        if v >= u:
            v += 1
        residues = [r for r in range(period) if rng.random() < density]
        if not residues:
            residues = [rng.randrange(period)]
        graph.add_edge(
            u,
            v,
            label=rng.choice(list(alphabet)),
            presence=periodic_presence(residues, period),
            key=f"r{index}",
        )
    return graph


def transit_tvg(
    lines: Iterable[tuple[Sequence[Hashable], int, int]],
    latency: int = 1,
    name: str = "transit",
) -> TimeVaryingGraph:
    """A periodic public-transit-style TVG.

    Each line is ``(stops, offset, period)``: a vehicle leaves ``stops[0]``
    at every ``t = offset (mod period)`` and advances one stop per
    ``latency`` time units; the hop from ``stops[i]`` to ``stops[i+1]`` is
    therefore present at ``t = offset + i * latency (mod period)``.

    This models the "connectivity over time without connectivity at any
    time" scenario with completely deterministic schedules, and — being
    periodic — supports exact wait-language extraction.
    """
    lines = list(lines)
    if not lines:
        raise ReproError("at least one line is required")
    overall = 1
    for _stops, _offset, period in lines:
        if period <= 0:
            raise ReproError(f"line period must be positive, got {period}")
        overall = _lcm(overall, period)
    graph = TimeVaryingGraph(period=overall, name=name)
    for line_index, (stops, offset, period) in enumerate(lines):
        stops = list(stops)
        if len(stops) < 2:
            raise ReproError("a line needs at least two stops")
        for i in range(len(stops) - 1):
            residue = (offset + i * latency) % period
            residues = [
                (residue + k * period) % overall for k in range(overall // period)
            ]
            graph.add_edge(
                stops[i],
                stops[i + 1],
                presence=periodic_presence(residues, overall),
                latency=coerce_latency(latency),
                key=f"line{line_index}.hop{i}",
            )
    return graph


def from_networkx_schedule(
    footprint: nx.Graph | nx.DiGraph,
    schedule: dict,
    horizon: int,
    latency: int = 1,
    name: str = "from-networkx",
) -> TimeVaryingGraph:
    """Lift a networkx footprint plus a ``(u, v) -> times`` schedule to a TVG.

    Undirected footprints become symmetric contacts.  Edges missing from
    the schedule are always present.
    """
    graph = TimeVaryingGraph(lifetime=Lifetime(0, horizon), name=name)
    graph.add_nodes(footprint.nodes)
    directed = footprint.is_directed()
    for u, v in footprint.edges:
        times = schedule.get((u, v))
        presence = None if times is None else at_times(times)
        if directed:
            graph.add_edge(u, v, presence=presence, latency=coerce_latency(latency))
        else:
            graph.add_contact(u, v, presence=presence, latency=coerce_latency(latency))
    return graph


def _lcm(a: int, b: int) -> int:
    import math

    return a * b // math.gcd(a, b)
