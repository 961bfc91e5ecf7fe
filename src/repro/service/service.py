"""The long-lived query service over one mutating time-varying graph.

:class:`TVGService` is the in-process core the asyncio server wraps: it
owns the graph, one :class:`~repro.core.engine.TemporalEngine` (whose
compiled index and :class:`~repro.core.index.LazyContactCache` survive
across queries), and one :class:`~repro.service.cache.QueryCache` of
finished results keyed by ``(graph.version, window, semantics, query)``.

Reads and writes interleave freely:

* a *query* first consults the cache at the graph's current version; on
  a miss it computes through the engine and stores the result.
  ``reach``, ``arrival``, and ``growth`` all derive from the batched
  arrival sweep, whose matrix of compact arrival offsets is cached once
  per ``(version, window, semantics)`` — point queries are array
  lookups and the growth curve one ``bincount`` on top, or a sum of
  the per-date counts a patched seed keeps; ``classify``
  runs its checkers through the engine and is cached at the result
  level;
* a *mutation* (``add_edge``, ``remove_edge``, ``set_presence``) bumps
  :attr:`TimeVaryingGraph.version` through the graph's own mutators and
  then purges exactly the stale cache entries.  The engine notices the
  version bump on its next query and recompiles lazily — the service
  never recomputes eagerly on write.

Answers are always equal to a fresh interpretive computation on the
current graph; the stateful differential harness in
``tests/properties/test_property_service.py`` drives adversarial
mutation/query schedules against a shadow copy to prove it.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Callable, Hashable, NamedTuple, Sequence

import numpy as np

from repro.analysis.classes import classify as classify_graph
from repro.analysis.evolution import (
    arrival_counts,
    growth_curve_from_arrivals,
    joined_counts,
)
from repro.core.engine import TemporalEngine
from repro.core.intervals import Interval
from repro.core.latency import LatencyFunction
from repro.core.presence import PresenceFunction
from repro.core.semantics import WAIT, WaitingSemantics
from repro.core.sweep_kernel import merge_rows, sentinel
from repro.core.time_domain import require_window
from repro.core.tvg import TimeVaryingGraph
from repro.errors import ServiceError
from repro.service.cache import MISS, QueryCache
from repro.service.tasks import DEFAULT_MAX_TASKS, TaskTable

if TYPE_CHECKING:  # pragma: no cover — typing only
    from repro.core.parallel import SweepExecutor

#: How many incremental seeds a service keeps; the least recently
#: computed goes first.  The benchmark's traffic sweeps one or two
#: windows, and the engine memoizes at most ``PLAN_MEMO_SIZE`` (8)
#: plans.
MAX_SEEDS: int = 8


class _Seed(NamedTuple):
    """The newest offset matrix a service computed for one matrix
    query.  ``node_index`` is the compiled index's own node map, whose
    keys are the matrix axes in order; ``counts`` are the matrix's
    :func:`~repro.analysis.evolution.joined_counts` over the query's
    window, kept once a ``growth`` has counted them (None before, and
    after a patch whose cone drops them)."""

    version: int
    node_index: dict
    offsets: np.ndarray
    counts: np.ndarray | None = None


def _matrix_query(start: int, horizon: int, semantics: WaitingSemantics) -> tuple:
    """The cache and seed key of one window's offset matrix."""
    return ("arrival_matrix", start, horizon, str(semantics))


class TVGService:
    """Answer reachability queries over a graph that mutates under you.

    ``cache_size`` bounds the number of memoized results; ``window``
    optionally pre-declares the engine's compiled window.
    ``executor`` goes to the engine and says where cache-miss arrival
    sweeps run (:class:`~repro.core.parallel.ProcessShards`,
    :class:`~repro.service.cluster.ClusterExecutor`, or None for
    in-process).  Answers are identical on every executor, so cache
    keys and hit behaviour don't change.

    The service also keeps, per window, the newest offset matrix it
    computed — its *seed* — across mutations.  A later miss patches the
    seed through the graph's delta chain, re-sweeping only the source
    rows whose answers can have changed, and sweeps in full only when
    the chain does not allow a patch; answers stay entry-for-entry
    identical to a from-scratch sweep.
    """

    def __init__(
        self,
        graph: TimeVaryingGraph,
        window: Interval | tuple[int, int] | None = None,
        cache_size: int = 256,
        executor: "SweepExecutor | None" = None,
        max_tasks: int = DEFAULT_MAX_TASKS,
    ) -> None:
        self.graph = graph
        self.engine = TemporalEngine(graph, window, executor)
        self.cache = QueryCache(max_entries=cache_size)
        self.tasks = TaskTable(max_tasks=max_tasks)
        # Matrix query -> its seed, oldest computation first.
        self._seeds: OrderedDict[tuple, _Seed] = OrderedDict()
        self.seeds_retained = 0
        self.queries_served = 0
        self.mutations_applied = 0
        self.full_sweeps = 0
        self.incremental_sweeps = 0
        self.rows_reswept = 0
        self.rows_reused = 0

    # -- the cached sweep ------------------------------------------------------

    def _cached(self, query: tuple, compute):
        version = self.graph.version
        value = self.cache.get(version, query)
        if value is MISS:
            value = compute()
            self.cache.put(version, query, value)
        return value

    def _arrival_matrix(
        self, start: int, horizon: int, semantics: WaitingSemantics
    ) -> tuple[dict[Hashable, int], np.ndarray]:
        """The sweep's offset matrix plus a node->row index, cached per
        window.

        Every point query at the same ``(version, window, semantics)``
        shares this one entry, so a burst of ``reach``/``arrival``
        calls between mutations costs a single sweep.
        """
        query = _matrix_query(start, horizon, semantics)
        return self._cached(
            query, lambda: self._compute_matrix(query, start, horizon, semantics)
        )

    def _compute_matrix(
        self, query: tuple, start: int, horizon: int, semantics: WaitingSemantics
    ) -> tuple[dict[Hashable, int], np.ndarray]:
        """One cache-miss matrix, from the query's seed when it can be.

        A seed at the current version (its cache entry was evicted) is
        the answer; an older one is patched through the delta chain,
        whatever the cone's size (a patch re-sweeps at most every row).
        The mutation that staled the seed purged its cache entry, so the
        service popped the one reference it keeps: the re-swept rows
        are written into the seed's matrix in place, and only a block in
        another offset dtype is merged into a recast copy
        (:func:`~repro.core.sweep_kernel.merge_rows`).  Where the seed
        kept growth counts and the cone holds under half the rows, the
        counts are patched from the cone alone, its old rows counted
        before the write: they lose the rows' old entries and gain their
        new ones, each block counted under its own dtype, and the rows'
        diagonal entries, 0 in both, cancel.  A larger cone would cost
        more to recount twice than the matrix once, so its counts are
        dropped and the next ``growth`` counts afresh.  The result
        becomes the query's seed.  Its node -> row map is the compiled
        index's own, as the patch or sweep that made it ran on that
        index: no per-miss rebuild.  The matrix is read-only from here
        on, while cached; only the next patch of its seed writes it.
        """
        version = self.graph.version
        seed = self._seeds.pop(query, None)
        if seed is not None and seed.version != version:
            old, seed = seed, None
            patched = self.engine.arrival_matrix_incremental(
                start, (old.node_index, old.offsets),
                self.graph.deltas_since(old.version), semantics, horizon,
            )
            if patched is not None:
                nodes, block, rows = patched
                self.incremental_sweeps += 1
                self.rows_reswept += len(rows)
                self.rows_reused += len(nodes) - len(rows)
                counts = None
                if old.counts is not None and 2 * len(rows) < len(nodes):
                    counts = (
                        old.counts
                        - arrival_counts(old.offsets[rows], start, horizon)
                        + arrival_counts(block, start, horizon)
                    )
                offsets = old.offsets
                if block.dtype != offsets.dtype:
                    offsets = merge_rows(offsets, rows, block)
                elif rows:
                    offsets.flags.writeable = True
                    offsets[rows] = block
                seed = _Seed(version, self.engine.compiled.node_index, offsets, counts)
        if seed is None:
            self.full_sweeps += 1
            _nodes, full = self.engine.arrival_offsets(
                start, semantics, horizon=horizon
            )
            seed = _Seed(version, self.engine.compiled.node_index, full)
        seed.offsets.flags.writeable = False
        self._seeds[query] = seed
        if len(self._seeds) > MAX_SEEDS:
            self._seeds.popitem(last=False)
        return seed.node_index, seed.offsets

    # -- queries ---------------------------------------------------------------

    def arrival(
        self,
        source: Hashable,
        target: Hashable,
        start: int,
        horizon: int,
        semantics: WaitingSemantics = WAIT,
    ) -> int | None:
        """Earliest date a journey from ``source`` (ready at ``start``)
        arrives at ``target``, or None if no journey joins them.

        Departures are bounded by ``horizon``; the trivial journey puts
        ``start`` on the diagonal.
        """
        self.queries_served += 1
        index, offsets = self._arrival_matrix(start, horizon, semantics)
        try:
            offset = int(offsets[index[source], index[target]])
        except KeyError as exc:
            raise ServiceError(f"unknown node {exc.args[0]!r}") from None
        return None if offset == sentinel(offsets) else start + offset

    def reach(
        self,
        source: Hashable,
        target: Hashable,
        start: int,
        horizon: int,
        semantics: WaitingSemantics = WAIT,
    ) -> bool:
        """Whether a journey joins the pair within the window."""
        return self.arrival(source, target, start, horizon, semantics) is not None

    def growth(
        self,
        start: int,
        end: int,
        semantics: WaitingSemantics = WAIT,
    ) -> list[tuple[int, float]]:
        """The reachability growth curve ``r(t)`` on ``[start, end)``.

        Derived from the same cached arrival matrix the point queries
        use, so a growth query never re-runs a sweep that ``reach``/
        ``arrival`` already paid for on the window (or vice versa).
        The first growth over a seed's matrix counts its arrivals per
        date and keeps the counts on the seed; patched misses with small
        cones keep them current (see :meth:`_compute_matrix`), so later
        curves cost O(window), not O(n^2).
        """
        self.queries_served += 1
        require_window(start, end)

        def compute():
            _index, offsets = self._arrival_matrix(start, end, semantics)
            query = _matrix_query(start, end, semantics)
            seed = self._seeds.get(query)
            if seed is None or seed.offsets is not offsets:
                return growth_curve_from_arrivals(offsets, start, end)
            if seed.counts is None:
                seed = self._seeds[query] = seed._replace(
                    counts=joined_counts(offsets, start, end)
                )
            return growth_curve_from_arrivals(offsets, start, end, seed.counts)

        return self._cached(("growth", start, end, str(semantics)), compute)

    def classify(self, start: int, end: int) -> dict:
        """Class membership on the window, as a JSON-able report."""
        self.queries_served += 1

        def compute():
            report = classify_graph(self.graph, start, end, engine=self.engine)
            return {
                "classes": sorted(report.classes),
                "interval_connectivity": report.interval_connectivity,
            }

        return self._cached(("classify", start, end), compute)

    # -- mutations -------------------------------------------------------------

    def _mutated(self) -> None:
        self.mutations_applied += 1
        self.seeds_retained += len(self._seeds)
        self.cache.purge_stale(self.graph.version)

    def add_edge(
        self,
        source: Hashable,
        target: Hashable,
        label: str | None = None,
        presence: PresenceFunction | None = None,
        latency: LatencyFunction | None = None,
        key: str | None = None,
    ) -> str:
        """Add a directed edge; returns the (possibly generated) key."""
        edge = self.graph.add_edge(
            source, target, label=label, presence=presence, latency=latency, key=key
        )
        self._mutated()
        return edge.key

    def remove_edge(self, key: str) -> str:
        """Remove the edge with the given key; returns the key."""
        self.graph.remove_edge(key)
        self._mutated()
        return key

    def set_presence(self, key: str, presence: PresenceFunction) -> str:
        """Swap the schedule of an existing edge in place."""
        self.graph.set_presence(key, presence)
        self._mutated()
        return key

    # -- background tasks ------------------------------------------------------

    def submit(self, op: str, run: Callable[[TVGService], Any]) -> dict:
        """Run ``run(service)`` in the background; returns ``{"task",
        "version"}`` immediately.

        ``op`` labels the task.  ``run`` gets a private service over a
        snapshot of the graph taken at this instant, built and dropped
        on the task thread with its own engine and cache, so the
        background sweep shares no mutable state with the live service:
        later mutations neither corrupt nor change the answer, which is
        exactly the answer ``run(self)`` would have given at submit time
        (the returned ``version`` stamps which graph the answer is
        about).  The caller validates the request before submitting it.
        """
        snapshot = self.graph.copy()
        version = self.graph.version
        task = self.tasks.submit(
            op,
            version,
            lambda: run(TVGService(snapshot, cache_size=4)),
        )
        return {"task": task.task_id, "version": version}

    def task_status(self, task_id: str) -> dict:
        """One task's status, plus whether its snapshot is now stale
        (the graph mutated since submit — the answer is still exact for
        the stamped version)."""
        report = self.tasks.status(task_id)
        report["stale"] = report["version"] != self.graph.version
        return report

    def task_result(self, task_id: str):
        """The finished task's value (wire-shaped); structured errors
        for pending, failed, cancelled, or unknown tasks."""
        return self.tasks.result(task_id)

    def task_cancel(self, task_id: str) -> dict:
        """Cancel a task; returns its status after the attempt."""
        report = self.tasks.cancel(task_id)
        report["stale"] = report["version"] != self.graph.version
        return report

    def task_wait(self, task_id: str, timeout: float | None = None) -> bool:
        """Blocking join for in-process callers and tests — never call
        this from an async handler (RL005 flags it); poll
        :meth:`task_status` there instead."""
        return self.tasks.wait(task_id, timeout)

    def close(self) -> None:
        """Tear down the background worker pool (idempotent)."""
        self.tasks.shutdown(wait=True)

    # -- fleet membership ------------------------------------------------------

    def set_workers(self, workers: Sequence[str]) -> list[str]:
        """Re-resolve the sweep-worker fleet; returns the resolved list.

        Elastic membership: safe at any time, including while a
        clustered sweep is in flight (departed workers stop pulling
        blocks, joined workers start stealing from the live queue).  The
        engine's :class:`~repro.service.cluster.ClusterExecutor` keeps
        its timeout and oversplit; an engine without one gets a fresh
        executor with default settings.  An empty list empties the
        fleet, and an empty fleet sweeps in-process.  Answers never
        change, only where the blocks run.
        """
        from repro.service.cluster import ClusterExecutor

        cluster = self.engine.executor
        if isinstance(cluster, ClusterExecutor):
            cluster.set_workers(workers)
        elif workers:
            cluster = self.engine.executor = ClusterExecutor(workers)
        else:
            return []
        return [f"{host}:{port}" for host, port in cluster.workers]

    # -- observability ---------------------------------------------------------

    def stats(self) -> dict:
        """A JSON-able snapshot of service and cache state."""
        report = {
            "graph": {
                "name": self.graph.name,
                "nodes": self.graph.node_count,
                "edges": self.graph.edge_count,
                "version": self.graph.version,
            },
            # The one production kernel and patch policy; kept in the
            # report for readers that compare runs by them.
            "kernel": "bitset",
            "incremental": "on",
            "queries_served": self.queries_served,
            "mutations_applied": self.mutations_applied,
            "sweeps": {
                "full": self.full_sweeps,
                "incremental": self.incremental_sweeps,
                "rows_reswept": self.rows_reswept,
                "rows_reused": self.rows_reused,
            },
            # ``retained``: seeds carried across a mutation, one per
            # seed per mutation.
            "cache": {**self.cache.stats(), "retained": self.seeds_retained},
            "tasks": self.tasks.stats(),
        }
        from repro.service.cluster import ClusterExecutor

        if isinstance(self.engine.executor, ClusterExecutor):
            report["cluster"] = self.engine.executor.stats()
        return report

    def __repr__(self) -> str:
        return (
            f"TVGService({self.graph!r}, {self.queries_served} queries, "
            f"{self.mutations_applied} mutations, cache={self.cache!r})"
        )
