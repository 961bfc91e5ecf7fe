"""The compiled contact-sequence index (``CompiledTVG``).

Interpretive journey search asks a Python :class:`PresenceFunction` one
date at a time.  :class:`CompiledTVG` lowers every *structured*
presence — ``always``/``never``, :class:`IntervalPresence`,
:class:`PeriodicPresence`, and their ``shifted``/``dilated``/
``union``/``intersect`` combinators — into sorted contact dates over a
bounded window, all edges' dates in one flat int64 array sliced per
edge by an ``edge_ptr`` CSR, plus a CSR per-node adjacency.  *Next
presence at or after t* becomes one ``searchsorted``, *all departures
in [a, b)* one slice.

Every leaf, and any shift or dilation of one, is a few arithmetic
progressions per edge: an interval piece has step 1, a periodic residue
step ``period``, ``always`` is the window, a shift moves the first date
and a dilation scales the first date and the step.  So one Python pass
collects them, their in-window counts are computed analytically, and
one ``np.repeat`` plus an offset ``arange`` expands all edges at once,
already in order (a periodic leaf's residues are rotated so the first
one at or after the window start comes first).  Memory is
O(contacts), never O(edges x window).  Unions and intersections lower
per edge through ``presence.support``.

:class:`FunctionPresence` (and any unknown subclass) admits no exact
lowering — the paper's Table 1 schedules are arbitrary computable
predicates.  Such edges are flagged *opaque* and lowered lazily by the
engine's long-lived :class:`LazyContactCache`, byte-for-byte the
interpretive semantics, each predicate called at most once per (edge,
date).  The index snapshots :attr:`TimeVaryingGraph.version`; the
:class:`~repro.core.engine.TemporalEngine` patches or rebuilds a stale
index before answering.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
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

    Per edge key the cache holds sorted, disjoint scanned *segments*
    ``(lo, hi, contacts)``: the sorted ``np.int64`` contact dates found
    in ``[lo, hi)``.  A query scans only the uncovered gaps it touches
    and merges the result with overlapping or adjacent segments (a
    query far from earlier ones starts a new segment), so across the
    cache's lifetime each predicate is invoked **at most once per (edge,
    date)**.  When the graph mutates, the cache drops exactly the edges
    that are gone or whose presence object changed, and keeps the rest.
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
        """Catch up with graph mutations: a cached edge survives iff it
        still exists with the *same* presence object it was scanned from."""
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


#: Bound on the magnitudes the array lowering computes with (window,
#: leaf windows, periods, scales, offsets): below it no int64
#: intermediate overflows.  An edge past it lowers through ``support``.
_ARRAY_BOUND = 2**60


def _peel(presence: PresenceFunction) -> tuple[PresenceFunction, int, int]:
    """``(leaf, scale, offset)``: the leaf under a presence's shifts and
    dilations, whose dates map to ``scale * t + offset``."""
    scale, offset = 1, 0
    while type(presence) in (_ShiftedPresence, _DilatedPresence):
        if type(presence) is _ShiftedPresence:
            offset += scale * presence.delta
        else:
            scale *= presence.factor
        presence = presence.inner
    return presence, scale, offset


def _lower_edges(
    edges: Sequence[Edge], window: Interval
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(edge_ptr, dates, opaque)``: the edges' sorted contact dates in
    ``window`` as one flat CSR, black-box edges flagged and empty.

    One pass collects *entries* ``(edge, period, residue count)``, each
    a leaf's dates ``lo + period * q + o`` in ``[lo, hi)`` for its
    residues' offsets ``o`` from ``lo`` (an interval piece or ``always``
    is an entry of period 1); the rest is whole-array arithmetic.
    """
    start, end = window.start, window.end
    entries: list[int] = []
    residues: list[int] = []
    bounds: dict[int, tuple[int, int]] = {}  # entry -> (lo, hi) if not the window
    affine: dict[int, tuple[int, int]] = {}  # edge -> (scale, offset) of a leaf
    rows: dict[int, np.ndarray] = {}  # edge -> dates lowered by ``support``
    opaque = np.zeros(len(edges), dtype=bool)
    # A window past the bound lowers every edge through ``support``.
    limit = _ARRAY_BOUND if -_ARRAY_BOUND < start and end < _ARRAY_BOUND else 0
    for i, edge in enumerate(edges):
        leaf = edge.presence
        if type(leaf) is PeriodicPresence and leaf.period < limit:  # fast path
            entries += (i, leaf.period, len(leaf._sorted))
            residues += leaf._sorted
            continue
        leaf, scale, offset = _peel(leaf)
        lo, hi = -((offset - start) // scale), -((offset - end) // scale)
        kind = type(leaf) if max(scale, abs(offset), abs(lo), abs(hi)) < limit else None
        if kind is not None and (scale, offset) != (1, 0):
            affine[i] = (scale, offset)
        if kind is PeriodicPresence and leaf.period < limit:
            bounds[len(entries) // 3] = (lo, hi)
            entries += (i, leaf.period, len(leaf._sorted))
            residues += leaf._sorted
        elif kind is IntervalPresence or kind is _AlwaysPresence:
            starts, ends = (
                (leaf.intervals._starts, leaf.intervals._ends)
                if kind is IntervalPresence
                else ([lo], [hi])
            )
            for j in range(bisect_right(ends, lo), bisect_left(starts, hi)):
                bounds[len(entries) // 3] = (max(starts[j], lo), min(ends[j], hi))
                entries += (i, 1, 1)
                residues.append(0)
        elif is_structured(edge.presence):
            rows[i] = _support_dates(edge.presence, window)
        else:
            opaque[i] = True

    edge_of, period, width = np.array(entries, dtype=np.int64).reshape(-1, 3).T
    count = len(edge_of)
    lo, hi = np.full((2, count), [[start], [end]] if limit else 0, dtype=np.int64)
    if bounds:
        lo[list(bounds)], hi[list(bounds)] = zip(*bounds.values())
    # Per residue: its entry, the offset of its first date from lo, and
    # (as residues are sorted, offsets are sorted up to a rotation: the
    # ones below ``lo % period`` wrap round to the end) its rank.
    owner = np.repeat(np.arange(count), width)
    res = np.array(residues, dtype=np.int64)
    offset = (res - lo[owner]) % period[owner]
    res_ptr = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(width, out=res_ptr[1:])
    wrapped = np.bincount(owner[res < (lo % period)[owner]], minlength=count)
    rank = (np.arange(len(res)) - res_ptr[owner] - wrapped[owner]) % width[owner]
    first = np.empty_like(offset)
    first[res_ptr[owner] + rank] = lo[owner] + offset
    # Per entry: a date per residue per full period, plus one per offset
    # inside the remainder; its k-th date is round k // width, rank k % width.
    full, rest = np.divmod(np.maximum(hi - lo, 0), period)
    counts = width * full + np.bincount(owner[offset < rest[owner]], minlength=count)
    contact_ptr = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(counts, out=contact_ptr[1:])
    owner = np.repeat(np.arange(count), counts)
    rounds, rank = np.divmod(
        np.arange(contact_ptr[-1], dtype=np.int64) - contact_ptr[owner], width[owner]
    )
    dates = first[res_ptr[owner] + rank] + period[owner] * rounds
    if affine:
        scale, shift = np.zeros((2, len(edges)), dtype=np.int64)
        scale += 1
        scale[list(affine)], shift[list(affine)] = zip(*affine.values())
        dates = dates * scale[edge_of[owner]] + shift[edge_of[owner]]
    edge_ptr = contact_ptr[np.searchsorted(edge_of, np.arange(len(edges) + 1))]
    return (*splice_csr(edge_ptr, dates, rows), opaque)


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


def write_csr(
    ptr: np.ndarray, values: np.ndarray, rows: dict[int, np.ndarray]
) -> np.ndarray:
    """A copy of a flat CSR's ``values`` with ``rows`` (row index -> new
    values, as many as the row holds) written in place of theirs."""
    written = values.copy()
    for i, row in rows.items():
        written[ptr[i] : ptr[i + 1]] = row
    return written


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
    ``dates[edge_ptr[i]:edge_ptr[i + 1]]``, and :attr:`arrivals` holds
    the aligned arrival dates.  Black-box edges are flagged in
    ``opaque`` and hold an empty range there — their dates come from
    the :class:`LazyContactCache`.  :attr:`contacts` is the per-edge
    view (an array per structured edge, None per black-box edge).
    ``out_ptr``/``out_edge_idx`` form the CSR adjacency: the out-edge
    indices of node ``j`` (in insertion order, matching
    :meth:`TimeVaryingGraph.out_edges`) are
    ``out_edge_idx[out_ptr[j]:out_ptr[j + 1]]``, and ``target_idx[i]``
    is edge ``i``'s head node.  Those six arrays (:attr:`SHARED`) are
    read-only from the moment they exist — :meth:`apply_deltas` writes
    new ones — so a :class:`~repro.core.parallel.SweepPlan` may hold
    them.  ``edge_list`` (the graph's :class:`Edge` objects, by index)
    and ``opaque`` belong to the index alone: no plan holds either, so
    :meth:`apply_deltas` patches them in place.  With a ``cache``,
    black-box queries are memoized through it.
    """

    #: The arrays a plan may hold, by attribute name.
    SHARED = ("edge_ptr", "dates", "arrivals", "out_ptr", "out_edge_idx", "target_idx")

    __slots__ = (
        "graph", "version", "window", "nodes", "node_index", "edge_list", "edge_ptr",
        "dates", "opaque", "cache", "const_latency", "out_ptr", "out_edge_idx",
        "target_idx", "_arrivals", "_out_lists", "_edge_pos",
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
        edges = self.edge_list = list(graph.edges)
        #: Edge key -> index, built by the first :meth:`edge_position`.
        self._edge_pos: dict[str, int] | None = None
        self.edge_ptr, self.dates, self.opaque = _lower_edges(edges, window)
        #: Latency value when the edge's zeta is constant, else -1 (call it).
        self.const_latency = np.array(
            [
                edge.latency.value if isinstance(edge.latency, ConstantLatency) else -1
                for edge in edges
            ],
            dtype=np.int64,
        )

        # CSR adjacency over edge indices, grouped by source node: a
        # node's out-edges keep graph order, as out_edges lists them.
        node_pos = self.node_index
        sources = np.array([node_pos[e.source] for e in edges], dtype=np.int64)
        self.out_edge_idx = np.argsort(sources, kind="stable").astype(np.int64)
        self.out_ptr = np.zeros(len(self.nodes) + 1, dtype=np.int64)
        np.cumsum(np.bincount(sources, minlength=len(self.nodes)), out=self.out_ptr[1:])
        #: Head-node index of each edge (for index-space sweeps).
        self.target_idx = np.array([node_pos[e.target] for e in edges], dtype=np.int64)
        #: Built by the first :attr:`arrivals` read.
        self._arrivals: np.ndarray | None = None
        # Rows as tuples (faster than numpy slices in hot loops), made on first use.
        self._out_lists: tuple[tuple[int, ...], ...] | None = None
        self._seal()

    def _seal(self) -> None:
        for name in self.SHARED:
            array = self._arrivals if name == "arrivals" else getattr(self, name)
            if array is not None:
                array.flags.writeable = False

    @property
    def arrivals(self) -> np.ndarray:
        """Each contact's arrival date, aligned with :attr:`dates`.

        Built on first read — the first plan build — so an index that
        only answers single-source searches never evaluates a latency
        for it; callable latencies are evaluated once per contact.
        :meth:`apply_deltas` keeps it current from then on."""
        if self._arrivals is None:
            ptr, dates, latency = self.edge_ptr, self.dates, self.const_latency
            arrivals = dates + np.repeat(latency, np.diff(ptr))
            for ei in np.flatnonzero(latency < 0).tolist():
                arrivals[ptr[ei] : ptr[ei + 1]] = self.arrival_dates(
                    ei, dates[ptr[ei] : ptr[ei + 1]]
                )
            self._arrivals = arrivals
            self._seal()
        return self._arrivals

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

        Presence swaps leave nodes, edges, adjacency and latencies
        intact, so a chain of ``"set_presence"`` deltas relowers the
        touched edges (through the same lowering as a compile), with
        their arrival dates once :attr:`arrivals` is built.  When every
        touched edge keeps its number of dates in the window (a swap
        between periodic schedules of as many residues) ``edge_ptr``
        stands and the new rows are written into one copy each of
        ``dates`` and ``arrivals``; otherwise both are spliced into
        fresh arrays with a fresh ``edge_ptr``.  Either way the old
        arrays are left to any plan holding them; ``edge_list`` and
        ``opaque`` are written in place at the touched positions.
        Returns False, for a rebuild, on any other delta kind or an
        unknowable chain (``deltas is None``).
        """
        if deltas is None or any(
            delta.kind != "set_presence" or delta.edge_key is None for delta in deltas
        ):
            return False
        touched: dict[int, Edge] = {}
        for delta in deltas:
            pos = self.edge_position(delta.edge_key)
            if pos is None:
                return False
            touched[pos] = self.graph.edge(delta.edge_key)
        ptr, dates, opaque = _lower_edges(list(touched.values()), self.window)
        rows = dict(zip(touched, split_csr(ptr, dates)))
        arrivals = self._arrivals
        if arrivals is not None:
            arrival_rows = {pos: self.arrival_dates(pos, row) for pos, row in rows.items()}
        old = self.edge_ptr
        if all(len(row) == old[pos + 1] - old[pos] for pos, row in rows.items()):
            self.dates = write_csr(old, self.dates, rows)
            if arrivals is not None:
                self._arrivals = write_csr(old, arrivals, arrival_rows)
        else:
            self.edge_ptr, self.dates = splice_csr(old, self.dates, rows)
            if arrivals is not None:
                self._arrivals = splice_csr(old, arrivals, arrival_rows)[1]
        self._seal()
        for pos, edge in touched.items():
            self.edge_list[pos] = edge
        self.opaque[list(touched)] = opaque
        self.version = self.graph.version
        return True

    def edge_position(self, key: str) -> int | None:
        """The index of the edge keyed ``key``, or None; the key map is
        built on first use."""
        if self._edge_pos is None:
            self._edge_pos = {edge.key: i for i, edge in enumerate(self.edge_list)}
        return self._edge_pos.get(key)

    # -- the two kernel queries ------------------------------------------------

    def out_edge_indices(self, node_idx: int) -> Sequence[int]:
        """Out-edge indices of a node, in insertion order."""
        if self._out_lists is None:
            edges, bounds = self.out_edge_idx.tolist(), self.out_ptr.tolist()
            self._out_lists = tuple(
                tuple(edges[lo:hi]) for lo, hi in zip(bounds, bounds[1:])
            )
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

    def arrival_dates(self, edge_idx: int, departures: np.ndarray) -> np.ndarray:
        """:meth:`arrival` of every date of ``departures`` (int64)."""
        value = int(self.const_latency[edge_idx])
        if value >= 0:
            return departures + value
        zeta = self.edge_list[edge_idx].latency
        return np.array([d + zeta(d) for d in departures.tolist()], dtype=np.int64)

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
