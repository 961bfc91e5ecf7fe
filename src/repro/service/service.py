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
  arrival sweep, whose matrix is cached once per ``(version, window,
  semantics)`` — point queries are array lookups and the growth curve
  one sort on top; ``classify`` runs its checkers through the engine
  and is cached at the result level;
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

from typing import TYPE_CHECKING, Hashable, Sequence

import numpy as np

from repro.analysis.classes import classify as classify_graph
from repro.analysis.evolution import growth_curve_from_arrivals
from repro.core.engine import UNREACHED, TemporalEngine
from repro.core.intervals import Interval
from repro.core.latency import LatencyFunction
from repro.core.presence import PresenceFunction
from repro.core.semantics import WAIT, WaitingSemantics
from repro.core.time_domain import require_window
from repro.core.tvg import TimeVaryingGraph
from repro.errors import ServiceError
from repro.service.cache import MISS, QueryCache
from repro.service.tasks import DEFAULT_MAX_TASKS, TaskTable

if TYPE_CHECKING:  # pragma: no cover — typing only
    from repro.core.parallel import SweepExecutor

#: The incremental-maintenance policies a service can run under:
#: ``"off"`` never patches (every cache miss is a full sweep), ``"on"``
#: patches when the cone is small enough to beat a full sweep, and
#: ``"force"`` patches whenever the delta chain allows it at all — the
#: mode the differential suites pin the path down with.
INCREMENTAL_MODES: tuple[str, ...] = ("off", "on", "force")


#: Required keyword arguments per background-runnable query op — the
#: only ops ``submit`` accepts, validated eagerly so a malformed submit
#: fails at the boundary, not minutes later on the worker thread.
BACKGROUND_OPS: dict[str, tuple[str, ...]] = {
    "reach": ("source", "target", "start", "horizon"),
    "arrival": ("source", "target", "start", "horizon"),
    "growth": ("start", "end"),
    "classify": ("start", "end"),
}


def _snapshot_query(
    graph: TimeVaryingGraph, op: str, params: dict
) -> bool | int | None | list | dict:
    """Answer one query op over a *private* graph snapshot.

    Runs on the task table's worker thread: everything it touches — the
    snapshot graph, a throwaway service with its own engine and cache —
    is built here and dies here, so a background sweep shares no
    mutable state with the live service.  Results come back wire-shaped
    (the growth curve as ``[[t, r], ...]``), matching what the socket
    protocol returns for the synchronous op.
    """
    service = TVGService(graph, cache_size=4, incremental="off")
    semantics = params.get("semantics", WAIT)
    if op == "reach":
        return service.reach(
            params["source"], params["target"], params["start"],
            params["horizon"], semantics,
        )
    if op == "arrival":
        return service.arrival(
            params["source"], params["target"], params["start"],
            params["horizon"], semantics,
        )
    if op == "growth":
        curve = service.growth(params["start"], params["end"], semantics)
        return [[t, r] for t, r in curve]
    if op == "classify":
        return service.classify(params["start"], params["end"])
    raise ServiceError(f"unknown background op {op!r}")


def _is_matrix_query(query: Hashable) -> bool:
    """Whether a cache query names a retainable arrival matrix."""
    return (
        isinstance(query, tuple) and bool(query) and query[0] == "arrival_matrix"
    )


class TVGService:
    """Answer reachability queries over a graph that mutates under you.

    ``cache_size`` bounds the number of memoized results; ``window``
    optionally pre-declares the engine's compiled window.
    ``executor`` goes to the engine and says where cache-miss arrival
    sweeps run (:class:`~repro.core.parallel.ProcessShards`,
    :class:`~repro.service.cluster.ClusterExecutor`, or None for
    in-process).  Answers are identical on every executor, so cache
    keys and hit behaviour don't change.  ``incremental`` picks the
    maintenance mode (:data:`INCREMENTAL_MODES`): with it on, mutations
    *retain* old arrival matrices instead of purging them, and a later
    miss patches the nearest ancestor through the graph's recorded
    delta chain — re-sweeping only the source rows whose answers can
    have changed — rather than re-sweeping everything; answers stay
    entry-for-entry identical to a from-scratch sweep.
    """

    def __init__(
        self,
        graph: TimeVaryingGraph,
        window: Interval | tuple[int, int] | None = None,
        cache_size: int = 256,
        executor: "SweepExecutor | None" = None,
        incremental: str = "on",
        max_tasks: int = DEFAULT_MAX_TASKS,
    ) -> None:
        if incremental not in INCREMENTAL_MODES:
            raise ValueError(
                f"unknown incremental mode {incremental!r}; "
                f"choose from {', '.join(INCREMENTAL_MODES)}"
            )
        self.graph = graph
        self.engine = TemporalEngine(graph, window, executor)
        self.cache = QueryCache(max_entries=cache_size)
        self.incremental = incremental
        self.tasks = TaskTable(max_tasks=max_tasks)
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
        """The sweep's matrix plus a node->row index, cached per window.

        Every point query at the same ``(version, window, semantics)``
        shares this one entry, so a burst of ``reach``/``arrival``
        calls between mutations costs a single sweep.  On a miss, an
        *ancestor* matrix for the same query (retained across
        mutations when incremental maintenance is on) is patched
        through the graph's delta chain instead of re-swept from
        scratch, whenever the dirty cone allows it.
        """
        query = ("arrival_matrix", start, horizon, str(semantics))
        return self._cached(
            query, lambda: self._compute_matrix(query, start, horizon, semantics)
        )

    def _compute_matrix(
        self, query: tuple, start: int, horizon: int, semantics: WaitingSemantics
    ) -> tuple[dict[Hashable, int], np.ndarray]:
        """One cache-miss matrix: incremental patch if possible, else a
        full sweep on the engine's executor."""
        if self.incremental != "off":
            found = self.cache.ancestor(query, self.graph.version)
            if found is not None:
                ancestor_version, (index, matrix) = found
                result = self.engine.arrival_matrix_incremental(
                    start,
                    (list(index), matrix),
                    self.graph.deltas_since(ancestor_version),
                    semantics,
                    horizon,
                    # "on" keeps full sweeps (on the executor) for
                    # cones covering most rows; "force" never does.
                    max_rows=(
                        None
                        if self.incremental == "force"
                        else max(1, self.graph.node_count // 2)
                    ),
                )
                if result is not None:
                    nodes, merged, reswept = result
                    self.incremental_sweeps += 1
                    self.rows_reswept += reswept
                    self.rows_reused += len(nodes) - reswept
                    return {node: i for i, node in enumerate(nodes)}, merged
        self.full_sweeps += 1
        nodes, full = self.engine.arrival_matrix(start, semantics, horizon=horizon)
        return {node: i for i, node in enumerate(nodes)}, full

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
        index, matrix = self._arrival_matrix(start, horizon, semantics)
        try:
            value = int(matrix[index[source], index[target]])
        except KeyError as exc:
            raise ServiceError(f"unknown node {exc.args[0]!r}") from None
        return None if value == UNREACHED else value

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
        """
        self.queries_served += 1
        require_window(start, end)

        def compute():
            _index, arrival = self._arrival_matrix(start, end, semantics)
            return growth_curve_from_arrivals(arrival, start, end)

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
        retain = _is_matrix_query if self.incremental != "off" else None
        self.cache.purge_stale(self.graph.version, retain=retain)

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

    def submit(self, op: str, **params) -> dict:
        """Run a query op in the background; returns ``{"task", "version"}``
        immediately.

        Only the query family (:data:`BACKGROUND_OPS`) may run in the
        background, and required fields are validated *now* — a
        malformed submit is a structured error at the boundary, never a
        failure discovered on a later poll.  The computation runs over
        a snapshot of the graph taken at this instant: later mutations
        neither corrupt nor change the answer, which is exactly the
        answer the synchronous op would have given at submit time (the
        returned ``version`` stamps which graph the answer is about).
        """
        required = BACKGROUND_OPS.get(op)
        if required is None:
            raise ServiceError(
                f"op {op!r} cannot run in the background; submit takes "
                f"one of: {', '.join(sorted(BACKGROUND_OPS))}"
            )
        missing = [field for field in required if field not in params]
        if missing:
            raise ServiceError(
                f"op {op!r} missing required field(s): {', '.join(missing)}"
            )
        snapshot = self.graph.copy()
        version = self.graph.version
        task = self.tasks.submit(
            op, version, lambda: _snapshot_query(snapshot, op, params)
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
            # The one production kernel; kept in the report for
            # readers that compare runs by it.
            "kernel": "bitset",
            "incremental": self.incremental,
            "queries_served": self.queries_served,
            "mutations_applied": self.mutations_applied,
            "sweeps": {
                "full": self.full_sweeps,
                "incremental": self.incremental_sweeps,
                "rows_reswept": self.rows_reswept,
                "rows_reused": self.rows_reused,
            },
            "cache": self.cache.stats(),
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
