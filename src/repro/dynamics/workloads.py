"""Named workload scenarios and the service workload driver.

One registry of the dynamic-network scenarios the examples and
benchmarks exercise, so every harness draws the same graphs from the
same seeds.  Each factory returns a fully-built TVG plus the metadata a
harness needs (suggested source/destination, window).

The *service trace* half (:func:`generate_service_trace`) turns a
scenario into a deterministic mixed stream of query and mutation
operations in the wire-protocol shape of :mod:`repro.service.server`.
Callers replay it by passing each op to the server's
``handle_request`` in turn (this layer may not import the service):
the same trace against two fresh services yields identical answer
streams, which is what lets the benchmark compare cached and cold runs
answer-for-answer.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Hashable

from repro.core.builders import TVGBuilder
from repro.core.generators import (
    bernoulli_tvg,
    edge_markovian_tvg,
    periodic_random_tvg,
    transit_tvg,
)
from repro.core.tvg import TimeVaryingGraph
from repro.dynamics.mobility import random_waypoint_tvg
from repro.errors import ReproError


@dataclass(frozen=True)
class Workload:
    """A ready-to-run scenario."""

    name: str
    graph: TimeVaryingGraph
    source: Hashable
    destination: Hashable
    start: int
    end: int

    @property
    def window(self) -> tuple[int, int]:
        return (self.start, self.end)


def sparse_dtn(seed: int = 0) -> Workload:
    """Sparse edge-Markovian contacts: the paper's 'disconnected at every
    instant' regime (delivery needs store-carry-forward)."""
    horizon = 60
    graph = edge_markovian_tvg(
        12, horizon=horizon, birth=0.03, death=0.6, seed=seed, name="sparse-dtn"
    )
    return Workload("sparse-dtn", graph, 0, 11, 0, horizon)


def dense_manet(seed: int = 0) -> Workload:
    """Dense, flickering connectivity: waiting helps little."""
    horizon = 40
    graph = edge_markovian_tvg(
        10, horizon=horizon, birth=0.3, death=0.3, seed=seed, name="dense-manet"
    )
    return Workload("dense-manet", graph, 0, 9, 0, horizon)


def campus_walkers(seed: int = 0) -> Workload:
    """Random-waypoint proximity contacts on a small grid."""
    horizon = 40
    graph = random_waypoint_tvg(8, 5, 5, horizon, seed=seed)
    return Workload("campus-walkers", graph, 0, 7, 0, horizon)


def night_bus(seed: int = 0) -> Workload:
    """A deterministic periodic transit network (two circular lines)."""
    graph = transit_tvg(
        [
            (["hub", "north", "loop", "hub"], 0, 8),
            (["hub", "south", "hub"], 4, 8),
        ],
        latency=1,
        name="night-bus",
    )
    return Workload("night-bus", graph, "hub", "loop", 0, 32)


def flaky_backbone(seed: int = 0) -> Workload:
    """A ring whose links are up at rotating instants — never a connected
    snapshot, always temporally connected."""
    n = 6
    builder = TVGBuilder(name="flaky-backbone").lifetime(0, 36)
    for i in range(n):
        builder.contact(i, (i + 1) % n, period=(i % 3, 3), key=f"ring{i}")
    return Workload("flaky-backbone", builder.build(), 0, n // 2, 0, 36)


def random_periodic_acceptor(seed: int = 0) -> Workload:
    """A labeled periodic TVG for language experiments."""
    graph = periodic_random_tvg(
        4, period=4, density=0.5, labels="ab", seed=seed, name="periodic-acceptor"
    )
    return Workload("periodic-acceptor", graph, 0, 3, 0, 32)


def bernoulli_cloud(seed: int = 0) -> Workload:
    """Memoryless random contacts at moderate density."""
    horizon = 30
    graph = bernoulli_tvg(
        9, horizon=horizon, density=0.08, seed=seed, name="bernoulli-cloud"
    )
    return Workload("bernoulli-cloud", graph, 0, 8, 0, horizon)


_REGISTRY: dict[str, Callable[[int], Workload]] = {
    "sparse-dtn": sparse_dtn,
    "dense-manet": dense_manet,
    "campus-walkers": campus_walkers,
    "night-bus": night_bus,
    "flaky-backbone": flaky_backbone,
    "periodic-acceptor": random_periodic_acceptor,
    "bernoulli-cloud": bernoulli_cloud,
}


def workload_names() -> list[str]:
    """All registered scenario names."""
    return sorted(_REGISTRY)


def make_workload(name: str, seed: int = 0) -> Workload:
    """Build a named scenario with the given seed."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ReproError(
            f"unknown workload {name!r}; available: {', '.join(workload_names())}"
        ) from None
    return factory(seed)


def all_workloads(seed: int = 0) -> list[Workload]:
    """One instance of every scenario."""
    return [make_workload(name, seed) for name in workload_names()]


# -- service workload traces ----------------------------------------------------

#: Relative weights of the query operations in a generated trace.
_QUERY_OPS = ("reach", "arrival", "growth", "classify")
_QUERY_WEIGHTS = (5, 5, 2, 1)


def _random_presence_spec(rng: random.Random, horizon: int) -> dict:
    """A structured presence spec drawn from the wire-encodable forms."""
    kind = rng.randrange(3)
    if kind == 0:
        period = rng.randint(2, 6)
        pattern = sorted(
            rng.sample(range(period), rng.randint(1, period))
        )
        return {"kind": "periodic", "pattern": pattern, "period": period}
    if kind == 1:
        a = rng.randrange(max(1, horizon - 1))
        b = rng.randint(a + 1, max(a + 1, horizon))
        return {"kind": "intervals", "pairs": [[a, b]]}
    return {"kind": "always"}


def generate_service_trace(
    workload: Workload,
    operations: int = 100,
    mutation_every: int = 5,
    seed: int = 0,
) -> list[dict]:
    """A deterministic mixed query/mutation trace for one scenario.

    Every ``mutation_every``-th operation is a mutation (cycling through
    add/remove/set-presence as the evolving edge population allows);
    the rest are queries drawn over the workload's nodes and window
    under both ``wait`` and ``nowait`` semantics.  The trace is plain
    wire-protocol dicts — JSON-able, replayable, and self-contained:
    removals and presence swaps only name keys the trace itself added,
    so replaying against any fresh instance of the scenario is valid.
    """
    rng = random.Random(seed)
    nodes = list(workload.graph.nodes)
    start, end = workload.window
    trace: list[dict] = []
    added_keys: list[str] = []
    counter = 0
    for position in range(operations):
        if mutation_every and position % mutation_every == mutation_every - 1:
            choice = rng.randrange(3)
            if choice == 1 and added_keys:  # remove a key this trace added
                key = added_keys.pop(rng.randrange(len(added_keys)))
                trace.append({"op": "remove_edge", "key": key})
                continue
            if choice == 2 and added_keys:  # reschedule one of ours
                key = added_keys[rng.randrange(len(added_keys))]
                trace.append({
                    "op": "set_presence",
                    "key": key,
                    "presence": _random_presence_spec(rng, end),
                })
                continue
            key = f"trace{counter}"
            counter += 1
            added_keys.append(key)
            source, target = rng.sample(nodes, 2)
            trace.append({
                "op": "add_edge",
                "source": source,
                "target": target,
                "key": key,
                "presence": _random_presence_spec(rng, end),
            })
            continue
        op = rng.choices(_QUERY_OPS, weights=_QUERY_WEIGHTS)[0]
        semantics = rng.choice(("wait", "nowait"))
        if op in ("reach", "arrival"):
            trace.append({
                "op": op,
                "source": rng.choice(nodes),
                "target": rng.choice(nodes),
                "start": start,
                "horizon": end,
                "semantics": semantics,
            })
        elif op == "growth":
            trace.append({
                "op": "growth", "start": start, "end": end,
                "semantics": semantics,
            })
        else:
            trace.append({"op": "classify", "start": start, "end": end})
    return trace


def zipf_weights(n: int, skew: float = 1.1) -> list[float]:
    """Zipf-law weights for ``n`` ranked items: weight of rank ``k``
    (1-based) is ``1 / k**skew``.  Real query traffic is head-heavy —
    a few hot endpoints absorb most requests — and the load bench needs
    that skew to exercise the cache's retained-entry path honestly
    (uniform traffic would understate hit rates)."""
    if n <= 0:
        raise ReproError(f"zipf_weights needs a positive n, got {n}")
    if skew < 0:
        raise ReproError(f"zipf skew must be non-negative, got {skew}")
    return [1.0 / (rank ** skew) for rank in range(1, n + 1)]


def generate_load_trace(
    workload: Workload,
    operations: int = 100,
    seed: int = 0,
    skew: float = 1.1,
    mutation_every: int = 0,
) -> list[dict]:
    """A zipf-skewed query trace (plus optional mutation churn) for the
    concurrent load bench.

    Unlike :func:`generate_service_trace` — which draws nodes uniformly
    so the replay bench sees maximal query diversity — this trace ranks
    the workload's nodes in a seed-shuffled order and picks sources and
    targets zipf-distributed over that ranking: a small hot set
    dominates, with a long cold tail, which is what makes cache hit
    rates and tail latencies under concurrency meaningful.  With
    ``mutation_every > 0`` every so-many-th operation is an ``add_edge``
    (always an addition, so concurrent shadows stay key-consistent).
    """
    rng = random.Random(seed)
    nodes = list(workload.graph.nodes)
    rng.shuffle(nodes)  # which nodes are hot is itself seed-dependent
    weights = zipf_weights(len(nodes), skew)
    start, end = workload.window
    trace: list[dict] = []
    counter = 0
    for position in range(operations):
        if mutation_every and position % mutation_every == mutation_every - 1:
            source, target = rng.sample(nodes, 2)
            key = f"load{seed}_{counter}"
            counter += 1
            trace.append({
                "op": "add_edge",
                "source": source,
                "target": target,
                "key": key,
                "presence": _random_presence_spec(rng, end),
            })
            continue
        op = rng.choices(_QUERY_OPS, weights=_QUERY_WEIGHTS)[0]
        semantics = rng.choice(("wait", "nowait"))
        if op in ("reach", "arrival"):
            source, target = rng.choices(nodes, weights=weights, k=2)
            trace.append({
                "op": op,
                "source": source,
                "target": target,
                "start": start,
                "horizon": end,
                "semantics": semantics,
            })
        elif op == "growth":
            trace.append({
                "op": "growth", "start": start, "end": end,
                "semantics": semantics,
            })
        else:
            trace.append({"op": "classify", "start": start, "end": end})
    return trace

