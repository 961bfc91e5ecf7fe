"""The temporal engine: compiled journey search over one shared kernel.

:class:`TemporalEngine` owns a :class:`~repro.core.index.CompiledTVG`
and exposes the one primitive every consumer needs — the *successor
kernel* :meth:`successors`, "all feasible single-hop moves out of the
temporal state ``(node, ready)``" — answered by binary search and array
slicing on the compiled contact sequences instead of per-date presence
calls.  On top of the kernel it offers:

* accelerated single-source searches: pass ``engine=`` to
  :func:`repro.core.traversal.reachable_states`,
  :func:`~repro.core.traversal.earliest_arrivals` or
  :func:`~repro.core.traversal.foremost_journey`, so compiled and
  interpretive runs execute the *same algorithm* and differ only in how
  successors are produced;
* a **batched all-pairs arrival sweep** (:meth:`arrival_matrix`) that
  records, for every (source, target) pair, the first date a journey
  arrives — in ONE pass over the temporal state space.  Each state
  carries a bitmask of the sources that reach it; masks merge as states
  are processed in increasing time order, and the first pop that brings
  a source's bit to a node *is* that pair's earliest arrival.
  :meth:`arrival_offsets` is the one sweep entry point: it answers in
  compact offsets from the start date, and :meth:`arrival_matrix`
  converts them once to int64 dates.  Where
  the sweep runs is the engine's one setting, its ``executor``
  (in-process by default; :class:`~repro.core.parallel.ProcessShards`
  or :class:`~repro.service.cluster.ClusterExecutor` spread the source
  blocks).  The matrix serves every consumer that reduces to earliest
  arrivals:
  :func:`repro.analysis.reachability.reachability_matrix` (arrival is
  finite), :func:`repro.analysis.evolution.reachability_growth`
  (arrivals counted per date offset and summed cumulatively, instead
  of a full matrix per prefix), and the connectivity predicates of
  :mod:`repro.analysis.classes`;
* a fast per-round presence lookup (:meth:`out_edges_at`) for the
  :class:`~repro.dynamics.network.Simulator`.

The engine transparently recompiles its index when the graph mutates
(version counter) or a query needs a wider time window (grow-only).
Edges whose presence cannot be lowered (black-box
:class:`~repro.core.presence.FunctionPresence`) fall back to the
interpretive scan inside the kernel — memoized through one long-lived
:class:`~repro.core.index.LazyContactCache` that survives index
rebuilds, so each black-box predicate is invoked at most once per
(edge, date) across repeated queries.  Results are always identical to
the legacy path — the interpretive implementation remains the
ground-truth oracle, checked by the equivalence property suites.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Hashable, Sequence

import numpy as np

from repro.core.edges import Edge
from repro.core.index import CompiledTVG, LazyContactCache
from repro.core.intervals import Interval
from repro.core.semantics import NO_WAIT, WaitingSemantics
from repro.core.traversal import _resolve_horizon
from repro.core.tvg import TimeVaryingGraph
from repro.errors import TimeDomainError

if TYPE_CHECKING:  # pragma: no cover — typing only
    from repro.core.parallel import SweepExecutor
    from repro.core.tvg import MutationDelta

# The sentinel now lives with the kernels; re-exported here, its
# historical home, so ``from repro.core.engine import UNREACHED`` keeps
# working everywhere.
from repro.core.sweep_kernel import UNREACHED  # noqa: E402  (re-export)


class TemporalEngine:
    """Compiled query engine over one :class:`TimeVaryingGraph`.

    ``window`` optionally pre-declares the time span to compile; by
    default the graph's bounded lifetime is used and the window grows
    on demand when a query reaches past it.  ``executor`` says where
    full arrival sweeps run: any object with a ``sweep(plan)`` method
    returning the plan's ``(n, n)`` offset matrix
    (:class:`~repro.core.parallel.SweepExecutor`), or None to sweep
    in-process.  Answers are identical whichever runs them.
    """

    def __init__(
        self,
        graph: TimeVaryingGraph,
        window: Interval | tuple[int, int] | None = None,
        executor: "SweepExecutor | None" = None,
    ) -> None:
        self.graph = graph
        self.executor = executor
        if window is not None and not isinstance(window, Interval):
            window = Interval(*window)
        self._requested_window = window
        self._index: CompiledTVG | None = None
        # One cache for the engine's whole lifetime: it survives index
        # rebuilds (window growth, staleness), so black-box predicates
        # are never re-scanned for dates already seen.
        self._contact_cache = LazyContactCache(graph)
        # Lowered SweepPlans, keyed by (version, start, horizon,
        # max_wait) — plans are immutable arrays, so any sweep of the
        # same query at the same version can share one lowering.
        # Owned here, filled by build_sweep_plan.
        self._plan_memo: dict[tuple, tuple[tuple, "object"]] = {}

    # -- index lifecycle -------------------------------------------------------

    def index_for(self, start: int, end: int) -> CompiledTVG:
        """The compiled index, rebuilt if stale or too narrow.

        The compiled window seeds from the declared window (or the
        graph's bounded lifetime) and only ever grows to cover later
        queries, so alternating queries cannot make the engine recompile
        back and forth.  Unbounded-lifetime graphs (e.g. periodic ones)
        need no declaration: every query arrives with explicit bounds
        and the window tracks the widest seen.

        Growth is *geometric*: a query past the window extends the new
        bound, in whichever direction it grew, to at least double the
        old span — so a rolling sequence of per-date lookups (the
        simulator's ``out_edges_at`` fast path on an unbounded-lifetime
        graph), ascending or descending, triggers O(log rounds)
        recompiles instead of one per round.  Staleness rebuilds keep
        the window as-is — mutations must not inflate it.
        """
        index = self._index
        if index is not None and index.covers(start, end):
            if not index.stale:
                return index
            # Stale but wide enough: a complete chain of presence-only
            # deltas patches the compiled arrays in place — no relower
            # of the untouched edges, no CSR rebuild.
            if index.apply_deltas(self.graph.deltas_since(index.version)):
                return index
        lo, hi = start, end
        if index is not None:
            old_lo, old_hi = index.window.start, index.window.end
            span = old_hi - old_lo
            lo, hi = min(lo, old_lo), max(hi, old_hi)
            if hi > old_hi:
                hi = max(hi, lo + 2 * span)
            if lo < old_lo:
                lo = min(lo, hi - 2 * span)
        elif self._requested_window is not None:
            window = self._requested_window
            lo, hi = min(lo, window.start), max(hi, window.end)
        elif self.graph.lifetime.bounded:
            lifetime = self.graph.lifetime
            lo, hi = min(lo, lifetime.start), max(hi, int(lifetime.end))
        self._index = CompiledTVG(self.graph, Interval(lo, hi), self._contact_cache)
        return self._index

    @property
    def compiled(self) -> CompiledTVG | None:
        """The current index (None until the first query compiles one)."""
        return self._index

    def require_graph(self, graph: TimeVaryingGraph, caller: str) -> None:
        """Raise unless this engine was built for ``graph``.

        The one shared guard every ``engine=`` hook runs before
        answering, so a mismatched engine fails the same way at every
        entry point.
        """
        if self.graph is not graph:
            raise TimeDomainError(
                f"the engine passed to {caller} was built for a different graph"
            )

    # -- the shared successor kernel -------------------------------------------

    def successors(
        self,
        node: Hashable,
        ready: int,
        semantics: WaitingSemantics = NO_WAIT,
        horizon: int | None = None,
    ) -> list[tuple[Edge, int, int]]:
        """All feasible ``(edge, departure, arrival)`` moves from ``(node, ready)``.

        Departures are < ``horizon`` and listed in increasing order per
        edge, edges in insertion order — the exact enumeration order of
        the interpretive :func:`repro.core.traversal.successors`.
        """
        horizon = _resolve_horizon(self.graph, horizon)
        if ready >= horizon:
            return []
        index = self.index_for(min(ready, horizon), horizon)
        node_idx = index.node_index[node]
        moves: list[tuple[Edge, int, int]] = []
        if semantics.is_no_wait:
            for ei in index.out_edge_indices(node_idx):
                if index.present_at(ei, ready):
                    moves.append(
                        (index.edge_list[ei], ready, index.arrival(ei, ready))
                    )
            return moves
        latest = semantics.latest_departure(ready, horizon)
        for ei in index.out_edge_indices(node_idx):
            edge = index.edge_list[ei]
            const = int(index.const_latency[ei])
            if const >= 0:
                moves.extend(
                    (edge, dep, dep + const)
                    for dep in index.departures(ei, ready, latest)
                )
            else:
                moves.extend(
                    (edge, dep, dep + edge.latency(dep))
                    for dep in index.departures(ei, ready, latest)
                )
        return moves

    # -- accelerated single-source searches ------------------------------------

    def earliest_arrivals_unbounded(
        self, source: Hashable, start_time: int, horizon: int
    ) -> dict[Hashable, int]:
        """Exact earliest arrivals under unbounded waiting, node-level.

        With unbounded waiting, the feasible departures from a later
        visit of a node are a *subset* of those from its earliest visit,
        so expanding each node once — from its earliest known arrival —
        covers every journey.  That collapses the temporal-state Dijkstra
        to a plain node Dijkstra: per settled node, each out-edge costs
        one binary search (constant latency) or one departure scan
        (varying latency) instead of one expansion per visit date.
        Valid only for ``WAIT``; bounded regimes go through the generic
        state-level search.
        """
        index = self.index_for(min(start_time, horizon), horizon)
        best: dict[Hashable, int] = {source: start_time}
        best_idx: dict[int, int] = {index.node_index[source]: start_time}
        settled: set[int] = set()
        heap: list[tuple[int, int]] = [(start_time, index.node_index[source])]
        while heap:
            ready, node_idx = heapq.heappop(heap)
            if node_idx in settled:
                continue
            settled.add(node_idx)
            if ready >= horizon:
                continue  # reachable, but no departure fits the horizon
            for ei in index.out_edge_indices(node_idx):
                target = int(index.target_idx[ei])
                if target in settled:
                    continue  # settled earlier, hence with arrival <= any new one
                const = int(index.const_latency[ei])
                if const >= 0:
                    departure = index.next_present(ei, ready, horizon)
                    if departure is None:
                        continue
                    arrival = departure + const
                else:
                    departures = index.departures(ei, ready, horizon)
                    if not departures:
                        continue
                    latency = index.edge_list[ei].latency
                    arrival = min(d + latency(d) for d in departures)
                if arrival < best_idx.get(target, arrival + 1):
                    best_idx[target] = arrival
                    best[index.nodes[target]] = arrival
                    heapq.heappush(heap, (arrival, target))
        return best

    # -- the batched multi-source sweep ----------------------------------------

    def arrival_offsets(
        self,
        start_time: int,
        semantics: WaitingSemantics = NO_WAIT,
        horizon: int | None = None,
    ) -> tuple[list[Hashable], np.ndarray]:
        """All-pairs earliest arrivals, in one pass — the one sweep
        entry point.

        Returns ``(nodes, offsets)`` where ``offsets[i, j]`` is how long
        after ``start_time`` a journey from ``nodes[i]`` (ready at
        ``start_time``) can first arrive at ``nodes[j]``, in the plan's
        :func:`~repro.core.sweep_kernel.offset_dtype` — its max for
        pairs no journey joins, 0 on the diagonal (the trivial journey).
        Departures are bounded by ``horizon``; arrivals may exceed it,
        exactly as in :func:`repro.core.traversal.earliest_arrivals`.

        One temporal-state search explores the same ``(node, time)``
        space whichever node it starts from, so instead of ``n``
        independent searches each state carries an integer bitmask of
        the sources that reach it.  Arrivals are strictly later than
        departures (latencies are positive), so processing states in
        increasing time order makes every mask final the moment its
        state is popped — and the first pop that brings source ``i``'s
        bit to node ``j`` is the pair's earliest arrival.  One pass, no
        fixpoint iteration.

        The sweep is lowered to one plain-data
        :class:`~repro.core.parallel.SweepPlan` and run by the engine's
        ``executor`` — or, without one, by
        :func:`~repro.core.sweep_kernel.sweep_block` in this process.
        """
        horizon = _resolve_horizon(self.graph, horizon)
        from repro.core.parallel import build_sweep_plan
        from repro.core.sweep_kernel import sweep_block

        nodes, plan = build_sweep_plan(self, start_time, semantics, horizon)
        if self.executor is None:
            return nodes, sweep_block(plan, range(plan.n))
        return nodes, self.executor.sweep(plan)

    def arrival_matrix(
        self,
        start_time: int,
        semantics: WaitingSemantics = NO_WAIT,
        horizon: int | None = None,
    ) -> tuple[list[Hashable], np.ndarray]:
        """:meth:`arrival_offsets` as int64 dates: ``(nodes, matrix)``
        where ``matrix[i, j]`` is the first date a journey from
        ``nodes[i]`` arrives at ``nodes[j]`` — :data:`UNREACHED` for
        pairs no journey joins, ``start_time`` on the diagonal."""
        from repro.core.sweep_kernel import offsets_to_dates

        nodes, offsets = self.arrival_offsets(start_time, semantics, horizon)
        return nodes, offsets_to_dates(offsets, start_time)

    def arrival_matrix_incremental(
        self,
        start_time: int,
        previous: tuple[Sequence[Hashable], np.ndarray],
        deltas: "Sequence[MutationDelta] | None",
        semantics: WaitingSemantics = NO_WAIT,
        horizon: int | None = None,
    ) -> tuple[list[Hashable], np.ndarray, int] | None:
        """Patch a cached offset matrix across a mutation-delta chain.

        ``previous`` is a ``(nodes, offsets)`` pair some earlier
        :meth:`arrival_offsets` call produced **for the same**
        ``(start_time, semantics, horizon)`` query on an ancestor
        version of this graph (``nodes`` may be that sweep's index's
        ``node_index``, whose keys are the node order: while the index
        is only patched, the order check is then one identity test),
        and ``deltas`` the complete chain of
        mutations since (:meth:`TimeVaryingGraph.deltas_since`).  The
        dirty edges' tails bound the *cone* of source rows whose
        answers can have changed — a row with no finite old arrival at
        any dirty tail cannot gain or lose a journey through a dirty
        edge (see :func:`~repro.core.sweep_kernel.affected_rows`) —
        so only those rows are re-swept and merged over a copy of the
        old matrix, recast to the new plan's offset dtype when the
        chain moved it.

        Returns ``(nodes, offsets, rows_reswept)``, entry-for-entry
        equal to a from-scratch :meth:`arrival_offsets`, or None when
        the incremental path does not apply: unknowable chain (``deltas
        is None``), node additions (the matrix axes change), or a
        node-order mismatch with ``previous``.  The cone itself is
        always swept in-process.  The input matrix is never mutated.
        """
        horizon = _resolve_horizon(self.graph, horizon)
        if deltas is None:
            return None
        prev_nodes, prev_matrix = previous
        if any(d.kind == "add_node" for d in deltas):
            return None
        from repro.core.parallel import build_sweep_plan
        from repro.core.sweep_kernel import (
            affected_rows,
            merge_rows,
            offset_dtype,
            sweep_block,
        )

        index = self.index_for(min(start_time, horizon), horizon)
        nodes, plan = build_sweep_plan(self, start_time, semantics, horizon)
        same_nodes = prev_nodes is index.node_index or tuple(prev_nodes) == index.nodes
        if not same_nodes or prev_matrix.shape != (plan.n, plan.n):
            return None
        tails: dict[int, None] = {}
        for delta in deltas:
            tail = index.node_index.get(delta.source)
            if tail is None:
                return None
            tails[tail] = None
        rows = affected_rows(prev_matrix, tuple(tails))
        if rows.size:
            block = sweep_block(plan, rows.tolist())
        else:
            block = np.empty((0, plan.n), dtype=offset_dtype(plan))
        return nodes, merge_rows(prev_matrix, rows, block), int(rows.size)

    # -- simulator fast path ---------------------------------------------------

    def out_edges_at(self, node: Hashable, time: int) -> list[Edge]:
        """Edges leaving ``node`` present at ``time`` (compiled lookup).

        Insertion-ordered, matching
        :meth:`TimeVaryingGraph.out_edges_at`, so a simulation driven
        through the engine is transmission-for-transmission identical.
        """
        index = self.index_for(time, time + 1)
        node_idx = index.node_index[node]
        return [
            index.edge_list[ei]
            for ei in index.out_edge_indices(node_idx)
            if index.present_at(ei, time)
        ]

    def __repr__(self) -> str:
        return f"TemporalEngine({self.graph!r}, index={self._index!r})"
