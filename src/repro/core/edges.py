"""Labeled time-varying edges.

An edge is a relation ``(u, v, label)`` in ``E ⊆ V x V x Sigma`` carrying
its own presence function ``rho`` and latency function ``zeta``.  Parallel
edges between the same endpoints (even with the same label) are allowed
and distinguished by a ``key`` — Figure 1 of the paper needs two distinct
``b``-labeled edges out of the same node with different schedules.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Hashable

from repro.core.latency import LatencyFunction, constant_latency
from repro.core.presence import PresenceFunction, always
from repro.errors import EdgeNotPresentError


@dataclass(frozen=True, slots=True)
class Edge:
    """A directed, labeled, time-varying edge.

    Edges compare by their fields, and schedules by identity, so two
    edges on one interned schedule (the same periodic pattern, say)
    with equal endpoints, label and key are equal.

    Attributes:
        source: Tail node.
        target: Head node.
        label: Symbol from the alphabet, or ``None`` for unlabeled edges
            (pure connectivity studies don't need labels).
        key: Unique identifier within the graph; also the name used in
            error messages and trace files.
        presence: The edge's ``rho`` — when it is available.
        latency: The edge's ``zeta`` — how long a traversal started at a
            given date takes.
    """

    source: Hashable
    target: Hashable
    label: str | None = None
    key: str = ""
    presence: PresenceFunction = field(default_factory=always)
    latency: LatencyFunction = field(default_factory=constant_latency)

    def present_at(self, time: int) -> bool:
        """Whether the edge can start being crossed at ``time``."""
        return self.presence(time)

    def traverse(self, time: int) -> int:
        """Arrival date of a traversal started at ``time``.

        Raises :class:`EdgeNotPresentError` if the edge is absent then —
        a traversal may only *start* while the edge is present.
        """
        if not self.presence(time):
            raise EdgeNotPresentError(self.key or (self.source, self.target), time)
        return time + self.latency(time)

    def shifted(self, delta: int) -> "Edge":
        """The same edge with its schedule translated by ``delta``."""
        return replace(
            self,
            presence=self.presence.shifted(delta),
            latency=self.latency.shifted(delta),
        )

    def dilated(self, factor: int) -> "Edge":
        """The same edge under sparse time dilation (Theorem 2.3)."""
        return replace(
            self,
            presence=self.presence.dilated(factor),
            latency=self.latency.dilated(factor),
        )

    def relabeled(self, label: str | None) -> "Edge":
        """The same edge carrying a different symbol."""
        return replace(self, label=label)

    def with_presence(self, presence: PresenceFunction) -> "Edge":
        """The same edge following a different schedule."""
        return replace(self, presence=presence)

    def reversed(self, key: str | None = None) -> "Edge":
        """The edge with source and target swapped (same schedule).

        Used to model undirected contacts as a pair of directed edges.
        """
        return replace(
            self,
            source=self.target,
            target=self.source,
            key=key if key is not None else f"{self.key}~rev",
        )

    def __repr__(self) -> str:
        label = "" if self.label is None else f":{self.label}"
        return f"Edge({self.key or '?'}: {self.source!r}->{self.target!r}{label})"
