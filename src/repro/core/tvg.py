"""The time-varying graph container.

``G = (V, E, T, rho, zeta)``: nodes, labeled edges, a lifetime, and the
presence/latency functions (stored per edge).  The container is a plain
adjacency structure; journey search lives in
:mod:`repro.core.traversal`, snapshots in :mod:`repro.core.snapshots`,
and structural transforms in :mod:`repro.core.transforms`.
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from typing import Hashable, Iterable, Iterator, NamedTuple

from repro.core.edges import Edge
from repro.core.latency import LatencyFunction, constant_latency
from repro.core.presence import PresenceFunction, always
from repro.core.time_domain import Lifetime
from repro.errors import ReproError, TimeDomainError

#: How many mutation deltas a graph retains.  A consumer whose snapshot
#: predates the retained history gets ``None`` from
#: :meth:`TimeVaryingGraph.deltas_since` and must recompute from
#: scratch, so the cap bounds memory without ever risking a stale
#: incremental answer.
DELTA_HISTORY: int = 4096


class MutationDelta(NamedTuple):
    """One recorded mutation: the version it produced and what changed.

    ``kind`` is ``"add_node"``, ``"add_edge"``, ``"remove_edge"``, or
    ``"set_presence"``.  ``edge_key`` is None for node additions;
    ``source``/``target`` are the touched edge's endpoints (both the
    node itself for ``"add_node"``), recorded at mutation time so a
    removed edge's endpoints survive its removal — the incremental
    sweep needs the *tail* of every dirty edge to bound its re-sweep
    cone.
    """

    version: int
    kind: str
    edge_key: str | None
    source: Hashable
    target: Hashable


class TimeVaryingGraph:
    """A directed time-varying multigraph with labeled edges.

    Attributes:
        lifetime: The time span over which the graph is studied.
        period: Optional declared period.  When set, every presence
            function is promised to satisfy ``rho(t) = rho(t + period)``
            and every latency ``zeta(t) = zeta(t + period)``; the
            wait-language extractor relies on this promise.
        name: Optional human-readable name used in reports.
    """

    def __init__(
        self,
        lifetime: Lifetime | None = None,
        period: int | None = None,
        name: str = "",
    ) -> None:
        if period is not None and period <= 0:
            raise TimeDomainError(f"period must be positive, got {period}")
        self.lifetime = lifetime if lifetime is not None else Lifetime()
        self.period = period
        self.name = name
        self._nodes: dict[Hashable, None] = {}
        self._edges: dict[str, Edge] = {}
        # Adjacency is keyed by edge key so removal is O(1) per endpoint
        # (dicts preserve insertion order, keeping edge iteration stable).
        self._out: dict[Hashable, dict[str, Edge]] = {}
        self._in: dict[Hashable, dict[str, Edge]] = {}
        self._key_counter = 0
        self._version = 0
        # One delta per version bump, consecutive by construction, so
        # deltas_since reads a chain off the log's tail by its length
        # alone.
        self._deltas: deque[MutationDelta] = deque(maxlen=DELTA_HISTORY)

    @property
    def version(self) -> int:
        """Monotone mutation counter.

        Bumped on every structural change (node or edge added/removed),
        so derived structures — notably the compiled contact-sequence
        index of :mod:`repro.core.index` — can detect staleness cheaply
        instead of re-validating the whole graph.
        """
        return self._version

    def _record(
        self, kind: str, edge_key: str | None, source: Hashable, target: Hashable
    ) -> None:
        """Bump the version and log the matching delta (always paired,
        so recorded versions stay consecutive)."""
        self._version += 1
        self._deltas.append(
            MutationDelta(self._version, kind, edge_key, source, target)
        )

    def deltas_since(self, version: int) -> tuple[MutationDelta, ...] | None:
        """Every mutation after the given version snapshot, oldest first.

        Returns ``()`` when the graph has not mutated since, and None
        when the chain is unknowable — the snapshot is from the future,
        or old enough that the bounded history no longer reaches back to
        it.  A None means "recompute from scratch"; a non-None chain is
        guaranteed complete, so derived structures (the compiled index,
        the service's cached matrices) can be patched instead of
        rebuilt.
        """
        behind = self._version - version
        if behind < 0 or behind > len(self._deltas):
            return None
        # Logged versions are consecutive and end at the current one, so
        # the chain is the log's last ``behind`` entries.
        return tuple(islice(reversed(self._deltas), behind))[::-1]

    # -- nodes --------------------------------------------------------------------

    def add_node(self, node: Hashable) -> Hashable:
        """Add a node (idempotent); returns the node."""
        if node not in self._nodes:
            self._nodes[node] = None
            self._out[node] = {}
            self._in[node] = {}
            self._record("add_node", None, node, node)
        return node

    def add_nodes(self, nodes: Iterable[Hashable]) -> None:
        for node in nodes:
            self.add_node(node)

    @property
    def nodes(self) -> tuple[Hashable, ...]:
        """All nodes, in insertion order."""
        return tuple(self._nodes)

    def has_node(self, node: Hashable) -> bool:
        return node in self._nodes

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    # -- edges --------------------------------------------------------------------

    def add_edge(
        self,
        source: Hashable,
        target: Hashable,
        label: str | None = None,
        presence: PresenceFunction | None = None,
        latency: LatencyFunction | None = None,
        key: str | None = None,
    ) -> Edge:
        """Add a directed edge; endpoints are created as needed.

        ``presence`` defaults to always-present and ``latency`` to the
        unit latency, so a plain static graph needs no schedule at all.
        ``key`` must be unique; an omitted key becomes the next ``e{k}``
        no edge holds.  A duplicate key leaves the graph untouched.
        """
        edge = self._new_edge(source, target, label, presence, latency, key)
        return self._add(edge)[0]

    def add_edge_object(self, edge: Edge) -> Edge:
        """Add a pre-built :class:`Edge` (used by transforms)."""
        if not edge.key:
            raise ReproError("edge objects added directly must carry a key")
        return self._add(edge)[0]

    def add_contact(
        self,
        u: Hashable,
        v: Hashable,
        presence: PresenceFunction | None = None,
        latency: LatencyFunction | None = None,
        label: str | None = None,
        key: str | None = None,
    ) -> tuple[Edge, Edge]:
        """Add an undirected contact as a symmetric pair of edges.

        Contact networks (the DTN setting of the paper's introduction)
        are undirected; both directions share the same schedule.  Both
        keys are checked before either edge goes in.
        """
        forward = self._new_edge(u, v, label, presence, latency, key)
        return self._add(forward, forward.reversed())

    def _new_edge(
        self, source: Hashable, target: Hashable, label: str | None,
        presence: PresenceFunction | None, latency: LatencyFunction | None,
        key: str | None,
    ) -> Edge:
        if key is None:
            # Explicit keys may have taken some e{k}: skip them.
            while f"e{self._key_counter}" in self._edges:
                self._key_counter += 1
            key = f"e{self._key_counter}"
            self._key_counter += 1
        return Edge(
            source=source,
            target=target,
            label=label,
            key=key,
            presence=presence if presence is not None else always(),
            latency=latency if latency is not None else constant_latency(1),
        )

    def _add(self, *edges: Edge) -> tuple[Edge, ...]:
        """Insert edges all or nothing: every key is checked before any
        node or edge goes in, so a refusal leaves the graph (and its
        version) as it was."""
        for edge in edges:
            if edge.key in self._edges:
                raise ReproError(f"duplicate edge key {edge.key!r}")
        for edge in edges:
            self.add_node(edge.source)
            self.add_node(edge.target)
            self._edges[edge.key] = edge
            self._out[edge.source][edge.key] = edge
            self._in[edge.target][edge.key] = edge
            self._record("add_edge", edge.key, edge.source, edge.target)
        return edges

    def remove_edge(self, key: str) -> Edge:
        """Remove and return the edge with the given key."""
        try:
            edge = self._edges.pop(key)
        except KeyError:
            raise ReproError(f"no edge with key {key!r}") from None
        del self._out[edge.source][key]
        del self._in[edge.target][key]
        self._record("remove_edge", key, edge.source, edge.target)
        return edge

    def set_presence(self, key: str, presence: PresenceFunction) -> Edge:
        """Swap the schedule of an existing edge; returns the new edge.

        Endpoints, label, key, and latency are preserved, and the swap
        bumps :attr:`version` exactly once (a remove + re-add would bump
        twice), so derived caches are invalidated without scanning.
        """
        old = self.edge(key)
        edge = old.with_presence(presence)
        self._edges[key] = edge
        self._out[edge.source][key] = edge
        self._in[edge.target][key] = edge
        self._record("set_presence", key, edge.source, edge.target)
        return edge

    @property
    def edges(self) -> tuple[Edge, ...]:
        """All edges, in insertion order."""
        return tuple(self._edges.values())

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def edge(self, key: str) -> Edge:
        """The edge with the given key."""
        try:
            return self._edges[key]
        except KeyError:
            raise ReproError(f"no edge with key {key!r}") from None

    def has_edge(self, key: str) -> bool:
        return key in self._edges

    def out_edges(self, node: Hashable) -> tuple[Edge, ...]:
        """Edges leaving ``node``."""
        self._require_node(node)
        return tuple(self._out[node].values())

    def in_edges(self, node: Hashable) -> tuple[Edge, ...]:
        """Edges entering ``node``."""
        self._require_node(node)
        return tuple(self._in[node].values())

    def edges_between(self, source: Hashable, target: Hashable) -> tuple[Edge, ...]:
        """All parallel edges from ``source`` to ``target``."""
        self._require_node(source)
        self._require_node(target)
        return tuple(e for e in self._out[source].values() if e.target == target)

    def _require_node(self, node: Hashable) -> None:
        if node not in self._nodes:
            raise ReproError(f"unknown node {node!r}")

    # -- time-indexed queries -------------------------------------------------------

    def edges_at(self, time: int) -> Iterator[Edge]:
        """All edges present at the given date."""
        self.lifetime.require(time)
        for edge in self._edges.values():
            if edge.present_at(time):
                yield edge

    def out_edges_at(self, node: Hashable, time: int) -> Iterator[Edge]:
        """Edges leaving ``node`` that are present at ``time``."""
        self._require_node(node)
        for edge in self._out[node].values():
            if edge.present_at(time):
                yield edge

    def degree_at(self, node: Hashable, time: int) -> int:
        """Number of present out-edges at ``time``."""
        return sum(1 for _ in self.out_edges_at(node, time))

    # -- alphabet ---------------------------------------------------------------------

    @property
    def alphabet(self) -> frozenset[str]:
        """All edge labels in use (the ``Sigma`` of the TVG-automaton view)."""
        return frozenset(
            e.label for e in self._edges.values() if e.label is not None
        )

    # -- copies --------------------------------------------------------------------

    def copy(self, name: str | None = None) -> "TimeVaryingGraph":
        """A structural copy sharing the (immutable) edge objects."""
        clone = TimeVaryingGraph(
            lifetime=self.lifetime,
            period=self.period,
            name=self.name if name is None else name,
        )
        clone.add_nodes(self._nodes)
        for edge in self._edges.values():
            clone.add_edge_object(edge)
        clone._key_counter = self._key_counter
        return clone

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        period = f", period={self.period}" if self.period else ""
        return (
            f"TimeVaryingGraph({label.strip()} |V|={self.node_count}, "
            f"|E|={self.edge_count}, lifetime=[{self.lifetime.start}, "
            f"{self.lifetime.end}){period})"
        )
