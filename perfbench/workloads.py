"""The benchmark's workloads: graphs, request schedules and sizes.

Every input is a pure function of the seed.  The server process gets
only the generated graph (as an edge list) and the requests; the load
generator keeps the schedule and the expected shape of each answer.

Each graph is a periodic TVG (period 8) over the window ``[0, 32)``:
every edge is present at a set of residues mod 8, so it has about four
contacts in the window.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

PERIOD = 8
START, END = WINDOW = (0, 32)

#: Key prefix of the edges the graph starts with (``e0``, ``e1``, ...).
EDGE_KEY = "e"
#: Zipf skew of query endpoints, as in the repository's load bench.
ZIPF_SKEW = 1.1


@dataclass(frozen=True)
class Workload:
    """One traffic mix against one graph.

    ``graph`` holds the generator parameters (see :func:`edge_list`).
    A ``closed`` loop sends a connection's next request when the last
    one is answered; an ``open`` loop sends at ``rate`` requests per
    second whatever happens.  In a closed loop each connection carries
    ``window`` clients, so up to that many requests are in flight on
    it, and with ``interval`` the loop sends at most one batch per
    ``interval`` seconds.  ``warmup`` requests are answered before
    the timed phase and count towards set-up.  ``rss_after_ops`` fixes
    when the server's peak RSS is read: after that many timed requests
    (so the figure does not grow with a faster server's op count), or
    at the end of the run when None.  ``latency`` is how the end-to-end
    ``latency_ms`` sums up the run's query latencies: ``"mean"`` where
    every query is the same kind of miss, ``"median"`` where hits and
    the queues behind misses mix.
    """

    name: str
    why: str
    graph: dict
    loop: str
    connections: int
    warmup: tuple[dict, ...]
    rss_after_ops: int | None = None
    latency: str = "median"
    window: int = 1
    interval: float = 0.0
    rate: float = 0.0
    mutate_every: int = 0


def _growth(semantics: str) -> dict:
    return {"op": "growth", "start": START, "end": END, "semantics": semantics}


def _point(op: str, source: int, target: int, semantics: str) -> dict:
    return {
        "op": op, "source": source, "target": target,
        "start": START, "horizon": END, "semantics": semantics,
    }


def make_workloads(tiny: bool = False) -> dict[str, Workload]:
    """The four workloads, full size or (``tiny``) small enough for the
    self-tests to run each in a few seconds."""
    big = 120 if tiny else 1600
    small = 60 if tiny else 400
    communities = (4, 30) if tiny else (32, 50)
    workloads = [
        Workload(
            name="cold-churn",
            why=(
                "every query follows a structural mutation, so each one "
                "misses the cache and runs compile, plan, lowering, "
                "kernel and derive"
            ),
            graph={"kind": "random", "nodes": big, "density": 0.002 * 1600 / big},
            loop="closed",
            connections=1,
            warmup=(_growth("wait"), _point("arrival", 0, 1, "nowait")),
            rss_after_ops=8,
            latency="mean",
        ),
        Workload(
            name="community-churn",
            why=(
                "presence swaps inside one community: the index is patched, "
                "not rebuilt, and the engine re-sweeps only the dirty cone"
            ),
            graph={
                "kind": "communities",
                "communities": communities[0],
                "size": communities[1],
                # ~41k edges at full size, as many as cold-churn has.
                "edge_p": 0.52,
            },
            loop="closed",
            connections=1,
            warmup=(_growth("wait"),),
            rss_after_ops=8,
            latency="mean",
            # Paced so the run's misses are spread over all of it (64
            # cycles fill about 38 s): the host's speed changes every few
            # seconds, and unpaced misses would sample only its start.
            interval=0.3,
        ),
        Workload(
            name="hot-read",
            why=(
                "zipf point queries on a warm cache, no mutations: only "
                "framing, dispatch and cache lookup run"
            ),
            graph={"kind": "random", "nodes": small, "density": 0.008 * 400 / small},
            loop="closed",
            connections=2,
            warmup=(_point("reach", 0, 1, "wait"), _point("reach", 0, 1, "nowait")),
            window=8,
        ),
        Workload(
            name="mixed-open",
            why=(
                "open-loop mix of hits, cold sweeps and classify sharing "
                "one event loop, so queueing behind misses shows"
            ),
            graph={"kind": "random", "nodes": small, "density": 0.008 * 400 / small},
            loop="open",
            connections=2,
            warmup=(
                _point("reach", 0, 1, "wait"),
                _point("reach", 0, 1, "nowait"),
                _growth("wait"),
                _growth("nowait"),
                {"op": "classify", "start": START, "end": END},
            ),
            rate=100.0,
            # One add_edge per 10 s: the misses after each keep the
            # server busy for 1-2 s, and with one every 3 s a slow spell
            # of the host queued over half the requests behind them.
            mutate_every=40 if tiny else 1000,
        ),
    ]
    return {workload.name: workload for workload in workloads}


# -- graphs --------------------------------------------------------------------


def edge_list(spec: dict, seed: int) -> tuple[int, list[list]]:
    """``(nodes, [[source, target, residues], ...])`` for a graph spec.

    ``random``: the graph of
    :func:`repro.core.generators.periodic_random_tvg` (every ordered
    pair gets each residue with probability ``density``).
    ``communities``: disjoint blocks of ``size`` nodes with no edge
    between blocks; each ordered pair inside a block is an edge with
    probability ``edge_p``, present at one random residue.
    """
    if spec["kind"] == "random":
        from repro.core.generators import periodic_random_tvg

        graph = periodic_random_tvg(spec["nodes"], PERIOD, spec["density"], seed=seed)
        edges = [
            [edge.source, edge.target, sorted(edge.presence.pattern)]
            for edge in graph.edges
        ]
        return spec["nodes"], edges
    if spec["kind"] == "communities":
        rng = np.random.default_rng(seed)
        size = spec["size"]
        n = spec["communities"] * size
        edges = []
        for block in range(spec["communities"]):
            base = block * size
            chosen = rng.random((size, size)) < spec["edge_p"]
            np.fill_diagonal(chosen, False)
            us, vs = np.nonzero(chosen)
            residues = rng.integers(0, PERIOD, size=len(us))
            edges.extend(
                [base + int(u), base + int(v), [int(r)]]
                for u, v, r in zip(us, vs, residues)
            )
        return n, edges
    raise ValueError(f"unknown graph kind {spec['kind']!r}")


def build_graph(nodes: int, edges: list[list]):
    """The :class:`~repro.core.tvg.TimeVaryingGraph` of an edge list,
    edge ``i`` keyed ``e{i}``.  The server and the answer checker build
    their graphs through this one function."""
    from repro.core.presence import periodic_presence
    from repro.core.tvg import TimeVaryingGraph

    graph = TimeVaryingGraph(period=PERIOD, name="perfbench")
    graph.add_nodes(range(nodes))
    for i, (source, target, residues) in enumerate(edges):
        graph.add_edge(
            source, target, key=f"{EDGE_KEY}{i}",
            presence=periodic_presence(residues, PERIOD),
        )
    return graph


# -- schedules -----------------------------------------------------------------


def _presence_spec(residue: int) -> dict:
    return {"kind": "periodic", "pattern": [residue], "period": PERIOD}


def cold_churn_ops(nodes: int, seed: int, cycles: int) -> list[dict]:
    """Mutation, query, mutation, query, ...

    Mutations alternate adding an edge under a fresh key and removing
    one the schedule added earlier.  Both change the edge set, so the
    next query rebuilds the compiled index rather than patching it.
    Queries alternate ``growth`` under WAIT and ``arrival`` under
    NO_WAIT; each is the first query of its kind at the new version, so
    each misses the cache.
    """
    rng = random.Random(seed)
    ops: list[dict] = []
    added: list[str] = []
    for cycle in range(cycles):
        if cycle % 2 == 0 or not added:
            key = f"t{cycle}"
            added.append(key)
            source, target = rng.sample(range(nodes), 2)
            ops.append({
                "op": "add_edge", "source": source, "target": target,
                "key": key, "presence": _presence_spec(rng.randrange(PERIOD)),
            })
        else:
            ops.append({
                "op": "remove_edge",
                "key": added.pop(rng.randrange(len(added))),
            })
        if cycle % 2 == 0:
            ops.append(_growth("wait"))
        else:
            source, target = rng.sample(range(nodes), 2)
            ops.append(_point("arrival", source, target, "nowait"))
    return ops


def community_churn_ops(
    edges: list[list], seed: int, cycles: int
) -> list[dict]:
    """Presence swap of one random edge (so inside one community), then
    one ``growth`` under WAIT, repeated."""
    rng = random.Random(seed)
    ops: list[dict] = []
    for _ in range(cycles):
        edge = rng.randrange(len(edges))
        ops.append({
            "op": "set_presence", "key": f"{EDGE_KEY}{edge}",
            "presence": _presence_spec(rng.randrange(PERIOD)),
        })
        ops.append(_growth("wait"))
    return ops


class PointQueries:
    """An endless, seeded stream of zipf-skewed ``reach``/``arrival``
    queries under both semantics (one stream per connection).  Which
    nodes are hot depends on the seed, as in
    :func:`repro.dynamics.workloads.generate_load_trace`."""

    def __init__(self, nodes: int, seed: int) -> None:
        from repro.dynamics.workloads import zipf_weights

        ranking = list(range(nodes))
        random.Random(seed).shuffle(ranking)
        self._ranking = ranking
        weights = zipf_weights(nodes, ZIPF_SKEW)
        total = 0.0
        self._cumulative = []
        for weight in weights:
            total += weight
            self._cumulative.append(total)
        self._rng = random.Random(seed + 1)

    def next(self) -> dict:
        rng = self._rng
        source, target = rng.choices(self._ranking, cum_weights=self._cumulative, k=2)
        return _point(
            "reach" if rng.random() < 0.5 else "arrival",
            source, target,
            "wait" if rng.random() < 0.5 else "nowait",
        )


def mixed_open_ops(nodes: int, seed: int, count: int, mutate_every: int) -> list[dict]:
    """The :func:`~repro.dynamics.workloads.generate_load_trace` mix:
    reach/arrival/growth/classify at 5/5/2/1 under both semantics, zipf
    endpoints, an ``add_edge`` every ``mutate_every``-th request."""
    from repro.dynamics.workloads import generate_load_trace

    scenario = SimpleNamespace(graph=SimpleNamespace(nodes=range(nodes)), window=WINDOW)
    return generate_load_trace(
        scenario, operations=count, seed=seed, skew=ZIPF_SKEW,
        mutation_every=mutate_every,
    )
