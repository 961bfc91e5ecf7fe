"""The compiled contact-sequence index (``CompiledTVG``).

Interpretive journey search asks a Python :class:`PresenceFunction` one
date at a time — a per-edge, per-date function call on the hottest path
of the whole system.  :class:`CompiledTVG` lowers every *structured*
presence into sorted contact dates over a bounded window — all edges'
dates in one flat int64 array sliced per edge by an ``edge_ptr`` CSR —
plus CSR-style per-node adjacency, so the two queries journey search
needs become array operations:

* *next presence at or after t* — one ``searchsorted`` (binary search);
* *all departures in [a, b)* — one slice of the sorted contact array.

Lowering rules
--------------

A presence is *structured* — exactly lowerable, no per-date calls — when
it is built from ``always``/``never``, :class:`IntervalPresence`,
:class:`PeriodicPresence`, and their ``shifted``/``dilated``/
``union``/``intersect`` combinators.  For those, ``presence.support``
already answers scan-free, so lowering an edge is one ``support`` call
over the window materialized into ``np.int64`` dates.

Black-box fallback
------------------

:class:`FunctionPresence` (and any unknown subclass) admits no exact
lowering — the paper's Table 1 schedules are arbitrary computable
predicates.  Those edges are *not* compiled: the index records them as
opaque and the engine answers their queries through the original
callable with bounded scans, byte-for-byte the interpretive semantics.
A compiled and an interpretive run therefore always agree; compilation
only accelerates the edges it can prove out.

Lazy black-box lowering
-----------------------

A black-box predicate is arbitrary but *deterministic*, so its answers
can be memoized.  :class:`LazyContactCache` lowers black-box edges
lazily: the first query over a window scans the predicate once and
stores the resulting contact dates as a sorted array; later queries are
answered from the array, and wider queries extend the scanned window by
calling the predicate only on the *new* dates.  The cache outlives index
rebuilds (the :class:`~repro.core.engine.TemporalEngine` owns one and
threads it through every :class:`CompiledTVG` it compiles), so across
repeated analysis queries each predicate is invoked at most once per
(edge, date).  Graph mutation flushes the cache through the same version
counter that invalidates the index.

Invalidation
------------

The index snapshots :attr:`TimeVaryingGraph.version` at build time.
Any structural mutation bumps the counter, and
:class:`~repro.core.engine.TemporalEngine` transparently rebuilds a
stale index before answering.
"""

from __future__ import annotations

from typing import Hashable, Sequence

import numpy as np

from repro.core.edges import Edge
from repro.core.intervals import Interval
from repro.core.latency import ConstantLatency
from repro.core.presence import (
    IntervalPresence,
    PeriodicPresence,
    PresenceFunction,
    _AlwaysPresence,
    _CombinedPresence,
    _DilatedPresence,
    _NeverPresence,
    _ShiftedPresence,
)
from repro.core.tvg import TimeVaryingGraph

_STRUCTURED_LEAVES = (
    _AlwaysPresence,
    _NeverPresence,
    IntervalPresence,
    PeriodicPresence,
)


def is_structured(presence: PresenceFunction) -> bool:
    """Whether ``presence`` lowers exactly (no per-date callable scans)."""
    if isinstance(presence, _STRUCTURED_LEAVES):
        return True
    if isinstance(presence, (_ShiftedPresence, _DilatedPresence)):
        return is_structured(presence.inner)
    if isinstance(presence, _CombinedPresence):
        return is_structured(presence.left) and is_structured(presence.right)
    return False


class LazyContactCache:
    """Memoized contact arrays for black-box presences of one graph.

    Per edge (keyed by edge key) the cache holds a sorted list of
    disjoint scanned *segments* ``(lo, hi, contacts)`` — the sorted
    ``np.int64`` contact dates found in ``[lo, hi)``.  A query inside
    scanned territory is pure array work; a query reaching outside
    scans only the uncovered gaps it actually touches and merges the
    result with any overlapping or adjacent segments.  Queries far from
    earlier ones therefore start a new segment instead of scanning the
    no-man's-land in between, and across the cache's lifetime each
    predicate is invoked **at most once per (edge, date)** — the lazy
    counterpart of the eager lowering :class:`CompiledTVG` applies to
    structured presences.

    The cache snapshots :attr:`TimeVaryingGraph.version`; when the graph
    mutates it drops exactly the edges whose schedule actually changed —
    the edge is gone, or its presence object is a different one than the
    segments were scanned against — and retains every other edge's
    segments.  Contacts are a pure function of the presence object, so
    an unrelated ``add_edge`` can no longer re-fire every black-box
    predicate on every other edge.
    """

    __slots__ = ("graph", "version", "_segments", "_presences")

    def __init__(self, graph: TimeVaryingGraph) -> None:
        self.graph = graph
        self.version = graph.version
        #: edge key -> sorted disjoint (lo, hi, contact dates) segments.
        self._segments: dict[str, list[tuple[int, int, np.ndarray]]] = {}
        #: edge key -> the presence object the segments were scanned
        #: against (identity is the retention test across mutations).
        self._presences: dict[str, PresenceFunction] = {}

    def _sync(self) -> None:
        """Catch up with graph mutations, keeping untouched edges.

        A cached edge survives iff it still exists and its presence is
        the *same object* the segments were scanned from; a remove +
        re-add under the same key with a new schedule, or a
        ``set_presence``, fails the identity check and drops exactly
        that edge's segments.
        """
        if self.graph.version == self.version:
            return
        for key in list(self._segments):
            if (
                not self.graph.has_edge(key)
                or self.graph.edge(key).presence is not self._presences.get(key)
            ):
                del self._segments[key]
                self._presences.pop(key, None)
        self.version = self.graph.version

    def __len__(self) -> int:
        """Number of edges with at least one scanned segment."""
        return len(self._segments)

    def scanned_window(self, edge: Edge) -> tuple[int, int] | None:
        """The hull ``(lo, hi)`` of the segments scanned for ``edge``.

        Dates inside the hull but between disjoint segments have *not*
        been scanned; None when the edge was never queried.
        """
        self._sync()
        segments = self._segments.get(edge.key)
        if not segments:
            return None
        return segments[0][0], segments[-1][1]

    def contacts(self, edge: Edge, start: int, end: int) -> np.ndarray:
        """Sorted contact dates of ``edge`` in ``[start, end)``.

        The predicate is called only on dates of ``[start, end)`` never
        scanned before.
        """
        self._sync()
        if self._presences.get(edge.key) is not edge.presence:
            # Segments (if any) were scanned from a different schedule
            # than the caller's edge object carries — never mix them.
            self._segments.pop(edge.key, None)
            self._presences[edge.key] = edge.presence
        if end <= start:
            return _EMPTY_CONTACTS
        segments = self._segments.get(edge.key, [])
        before: list[tuple[int, int, np.ndarray]] = []
        absorbed: list[tuple[int, int, np.ndarray]] = []
        after: list[tuple[int, int, np.ndarray]] = []
        for segment in segments:
            lo, hi, _dates = segment
            if hi < start:
                before.append(segment)
            elif lo > end:
                after.append(segment)
            else:  # overlapping or adjacent: merge into the query's span
                absorbed.append(segment)
        merged_lo = min([start] + [lo for lo, _hi, _d in absorbed])
        merged_hi = max([end] + [hi for _lo, hi, _d in absorbed])
        pieces: list[np.ndarray] = []
        cursor = merged_lo
        for lo, hi, dates in absorbed:
            if cursor < lo:
                pieces.append(self._scan(edge, cursor, lo))
            pieces.append(dates)
            cursor = hi
        if cursor < merged_hi:
            pieces.append(self._scan(edge, cursor, merged_hi))
        merged = pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
        self._segments[edge.key] = before + [(merged_lo, merged_hi, merged)] + after
        left = int(np.searchsorted(merged, start, side="left"))
        right = int(np.searchsorted(merged, end, side="left"))
        return merged[left:right]

    @staticmethod
    def _scan(edge: Edge, start: int, end: int) -> np.ndarray:
        return np.fromiter(
            (t for t in range(start, end) if edge.present_at(t)), dtype=np.int64
        )

    def __repr__(self) -> str:
        segments = sum(len(s) for s in self._segments.values())
        return (
            f"LazyContactCache({len(self)} edges scanned in {segments} "
            f"segments, version={self.version})"
        )


_EMPTY_CONTACTS = np.empty(0, dtype=np.int64)


def _support_dates(presence: PresenceFunction, window: Interval) -> np.ndarray:
    support = presence.support(window)
    return np.fromiter(support.times(), dtype=np.int64, count=support.total_length())


def pack_csr(
    rows: Sequence[Sequence[int] | None],
) -> tuple[np.ndarray, np.ndarray]:
    """``(ptr, values)``: int rows packed into one flat int64 CSR, row
    ``i`` being ``values[ptr[i]:ptr[i + 1]]`` (None packs as empty)."""
    lengths = np.fromiter(
        (0 if row is None else len(row) for row in rows),
        dtype=np.int64,
        count=len(rows),
    )
    ptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(lengths, out=ptr[1:])
    filled = [row for row in rows if row is not None and len(row)]
    values = np.concatenate(filled) if filled else _EMPTY_CONTACTS
    return ptr, values.astype(np.int64, copy=False)


def split_csr(
    ptr: np.ndarray, values: np.ndarray, opaque: np.ndarray | None = None
) -> list[np.ndarray | None]:
    """The rows of a flat CSR as views of ``values`` (None where
    ``opaque`` is set)."""
    bounds = ptr.tolist()
    rows: list[np.ndarray | None] = [
        values[lo:hi] for lo, hi in zip(bounds, bounds[1:])
    ]
    if opaque is not None:
        for i in np.flatnonzero(opaque).tolist():
            rows[i] = None
    return rows


def splice_csr(
    ptr: np.ndarray, values: np.ndarray, rows: dict[int, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """A flat CSR with ``rows`` (row index -> new values) replaced, as
    new arrays; the inputs are left as they are."""
    if not rows:
        return ptr, values
    lengths = np.diff(ptr)
    pieces: list[np.ndarray] = []
    copied = 0
    for i in sorted(rows):
        pieces += [values[copied : ptr[i]], rows[i]]
        lengths[i] = len(rows[i])
        copied = ptr[i + 1]
    pieces.append(values[copied:])
    spliced = np.zeros_like(ptr)
    np.cumsum(lengths, out=spliced[1:])
    return spliced, np.concatenate(pieces)


class CompiledTVG:
    """A contact-sequence index of one graph over one time window.

    Contacts live in one flat CSR: edge ``i``'s sorted present dates
    within ``[window.start, window.end)`` are
    ``dates[edge_ptr[i]:edge_ptr[i + 1]]``.  Black-box edges are flagged
    in ``opaque`` and hold an empty range there — their dates come from
    the :class:`LazyContactCache`.  :attr:`contacts` is the per-edge
    view (an array per structured edge, None per black-box edge).
    ``out_ptr``/``out_edge_idx`` form the CSR adjacency: the out-edge
    indices of node ``j`` (in insertion order, matching
    :meth:`TimeVaryingGraph.out_edges`) are
    ``out_edge_idx[out_ptr[j]:out_ptr[j + 1]]``, and ``target_idx[i]``
    is edge ``i``'s head node.  Arrays are never written after they are
    built — :meth:`apply_deltas` splices new ones — so a
    :class:`~repro.core.parallel.SweepPlan` may share them.

    ``cache`` optionally supplies a :class:`LazyContactCache`; with one,
    black-box queries are memoized through it instead of re-calling the
    predicate on every scan.
    """

    __slots__ = (
        "graph",
        "version",
        "window",
        "nodes",
        "node_index",
        "edge_list",
        "edge_ptr",
        "dates",
        "opaque",
        "cache",
        "const_latency",
        "out_ptr",
        "out_edge_idx",
        "target_idx",
        "_out_lists",
        "_edge_pos",
    )

    def __init__(
        self,
        graph: TimeVaryingGraph,
        window: Interval,
        cache: LazyContactCache | None = None,
    ) -> None:
        if window.empty:
            window = Interval(window.start, window.start)
        self.graph = graph
        self.version = graph.version
        self.window = window
        self.cache = cache
        self.nodes: tuple[Hashable, ...] = graph.nodes
        self.node_index: dict[Hashable, int] = {
            node: i for i, node in enumerate(self.nodes)
        }
        self.edge_list: tuple[Edge, ...] = graph.edges
        edge_count = len(self.edge_list)
        edge_pos = {edge.key: i for i, edge in enumerate(self.edge_list)}
        self._edge_pos: dict[str, int] = edge_pos

        lowered = [self._lower(edge.presence, window) for edge in self.edge_list]
        self.edge_ptr, self.dates = pack_csr(lowered)
        self.opaque = np.fromiter(
            (c is None for c in lowered), dtype=bool, count=edge_count
        )
        #: Latency value when the edge's zeta is constant, else -1 (call it).
        self.const_latency = np.fromiter(
            (
                edge.latency.value if isinstance(edge.latency, ConstantLatency) else -1
                for edge in self.edge_list
            ),
            dtype=np.int64,
            count=edge_count,
        )

        # CSR adjacency over edge indices, grouped by source node.
        per_node = [
            [edge_pos[edge.key] for edge in graph.out_edges(node)]
            for node in self.nodes
        ]
        self.out_ptr, self.out_edge_idx = pack_csr(per_node)
        # Hot-loop view of the CSR rows: plain tuples iterate faster than
        # numpy slices, so snapshot each row once (derived, never diverges).
        self._out_lists: tuple[tuple[int, ...], ...] = tuple(
            tuple(row) for row in per_node
        )
        #: Head-node index of each edge (for index-space sweeps).
        self.target_idx = np.fromiter(
            (self.node_index[edge.target] for edge in self.edge_list),
            dtype=np.int64,
            count=edge_count,
        )

    @staticmethod
    def _lower(presence: PresenceFunction, window: Interval) -> np.ndarray | None:
        if not is_structured(presence):
            return None
        return _support_dates(presence, window)

    @property
    def contacts(self) -> list[np.ndarray | None]:
        """Per edge: its compiled contact dates, or None (black-box)."""
        return split_csr(self.edge_ptr, self.dates, self.opaque)

    def _compiled(self, edge_idx: int) -> np.ndarray | None:
        if self.opaque[edge_idx]:
            return None
        return self.dates[self.edge_ptr[edge_idx] : self.edge_ptr[edge_idx + 1]]

    # -- staleness ------------------------------------------------------------

    @property
    def stale(self) -> bool:
        """Whether the graph mutated after this index was built."""
        return self.graph.version != self.version

    def covers(self, start: int, end: int) -> bool:
        """Whether ``[start, end)`` lies inside the compiled window."""
        return start >= self.window.start and end <= self.window.end

    def apply_deltas(self, deltas) -> bool:
        """Patch the index from a complete mutation-delta chain.

        Presence swaps are the only mutation that leaves every compiled
        shape intact — same nodes, same edge set, same adjacency, same
        latencies — so a chain of pure ``"set_presence"`` deltas patches
        as: relower each touched edge over the existing window, splice
        the new ranges into fresh flat arrays (the old ones stay intact
        for any plan still holding them), and refresh the touched
        :attr:`edge_list` entries.  Any other delta kind (or an
        unknowable chain, ``deltas is None``) returns False and the
        caller rebuilds from scratch.  Returns True with
        :attr:`version` caught up on success.
        """
        if deltas is None:
            return False
        touched: dict[str, None] = {}
        for delta in deltas:
            if delta.kind != "set_presence" or delta.edge_key is None:
                return False
            touched[delta.edge_key] = None
        relowered: dict[int, np.ndarray] = {}
        edges = list(self.edge_list)
        opaque = self.opaque.copy()
        for key in touched:
            pos = self._edge_pos.get(key)
            if pos is None:
                return False
            edges[pos] = self.graph.edge(key)
            lowered = self._lower(edges[pos].presence, self.window)
            opaque[pos] = lowered is None
            relowered[pos] = _EMPTY_CONTACTS if lowered is None else lowered
        self.edge_ptr, self.dates = splice_csr(self.edge_ptr, self.dates, relowered)
        self.opaque = opaque
        self.edge_list = tuple(edges)
        self.version = self.graph.version
        return True

    # -- the two kernel queries ------------------------------------------------

    def out_edge_indices(self, node_idx: int) -> Sequence[int]:
        """Out-edge indices of a node, in insertion order."""
        return self._out_lists[node_idx]

    def opaque_contacts(self, edge_idx: int, start: int, end: int) -> np.ndarray:
        """Sorted dates of black-box edge ``edge_idx`` in ``[start, end)``,
        through the cache when there is one."""
        if end <= start:
            return _EMPTY_CONTACTS
        edge = self.edge_list[edge_idx]
        if self.cache is not None:
            return self.cache.contacts(edge, start, end)
        return _support_dates(edge.presence, Interval(start, end))

    def next_present(self, edge_idx: int, time: int, limit: int) -> int | None:
        """Earliest contact of edge ``edge_idx`` in ``[time, limit)``."""
        contacts = self._compiled(edge_idx)
        if contacts is None:
            if self.cache is None:
                return self.edge_list[edge_idx].presence.next_present(time, limit)
            found = self.opaque_contacts(edge_idx, time, limit)
            return int(found[0]) if len(found) else None
        pos = int(np.searchsorted(contacts, time, side="left"))
        if pos < len(contacts) and contacts[pos] < limit:
            return int(contacts[pos])
        return None

    def departures(self, edge_idx: int, start: int, end: int) -> list[int]:
        """All contacts of edge ``edge_idx`` in ``[start, end)``, sorted."""
        if end <= start:
            return []
        contacts = self._compiled(edge_idx)
        if contacts is None:
            return self.opaque_contacts(edge_idx, start, end).tolist()
        lo = int(np.searchsorted(contacts, start, side="left"))
        hi = int(np.searchsorted(contacts, end, side="left"))
        return contacts[lo:hi].tolist()

    def present_at(self, edge_idx: int, time: int) -> bool:
        """Membership test on the compiled contact sequence."""
        contacts = self._compiled(edge_idx)
        if contacts is None:
            if self.cache is None:
                return self.edge_list[edge_idx].present_at(time)
            return bool(len(self.opaque_contacts(edge_idx, time, time + 1)))
        pos = int(np.searchsorted(contacts, time, side="left"))
        return pos < len(contacts) and int(contacts[pos]) == time

    def arrival(self, edge_idx: int, departure: int) -> int:
        """Arrival date of a traversal of ``edge_idx`` started at ``departure``."""
        value = int(self.const_latency[edge_idx])
        if value >= 0:
            return departure + value
        return departure + self.edge_list[edge_idx].latency(departure)

    # -- stats ----------------------------------------------------------------

    @property
    def compiled_edge_count(self) -> int:
        """How many edges lowered exactly (the rest use the fallback)."""
        return int(len(self.opaque) - self.opaque.sum())

    def __repr__(self) -> str:
        return (
            f"CompiledTVG(|V|={len(self.nodes)}, |E|={len(self.edge_list)}, "
            f"compiled={self.compiled_edge_count}, window=[{self.window.start}, "
            f"{self.window.end}), version={self.version})"
        )
