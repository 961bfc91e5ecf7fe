"""Journeys: paths over time.

A journey is a walk ``<e_1, ..., e_k>`` with starting dates
``<t_1, ..., t_k>`` such that edge ``e_i`` is present at ``t_i`` and
``t_{i+1} >= t_i + zeta(e_i, t_i)``.  It is *direct* when every such
inequality is an equality and *indirect* otherwise.  The word of a
journey is the sequence of its edge labels; the languages the paper
studies are sets of journey words.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator

from repro.core.edges import Edge
from repro.core.semantics import NO_WAIT, WaitingSemantics
from repro.errors import InvalidJourneyError


@dataclass(frozen=True)
class Hop:
    """One edge traversal within a journey: ``edge`` taken at ``start``."""

    edge: Edge
    start: int

    @property
    def arrival(self) -> int:
        """Date at which the traversal completes."""
        return self.start + self.edge.latency(self.start)

    def __repr__(self) -> str:
        return f"Hop({self.edge.key or self.edge.label}@{self.start}->{self.arrival})"


class Journey:
    """An immutable, validated journey.

    Validation happens at construction: edges must chain (each hop starts
    where the previous one ended), every edge must be present at its
    starting date, and pauses must be non-negative.  Whether the pauses
    fit a given waiting regime is a separate question answered by
    :meth:`feasible_under` — the same journey object can be tested
    against several semantics.
    """

    __slots__ = ("_hops", "_pauses")

    def __init__(self, hops: Iterable[Hop]) -> None:
        hops = tuple(hops)
        if not hops:
            raise InvalidJourneyError("a journey needs at least one hop")
        pauses: list[int] = []
        for i, hop in enumerate(hops):
            if not hop.edge.present_at(hop.start):
                raise InvalidJourneyError(
                    f"hop {i}: edge {hop.edge!r} absent at time {hop.start}"
                )
            if i > 0:
                previous = hops[i - 1]
                if previous.edge.target != hop.edge.source:
                    raise InvalidJourneyError(
                        f"hop {i}: edge {hop.edge!r} does not start at "
                        f"{previous.edge.target!r} where hop {i - 1} ended"
                    )
                pause = hop.start - previous.arrival
                if pause < 0:
                    raise InvalidJourneyError(
                        f"hop {i} departs at {hop.start}, before the previous "
                        f"arrival at {previous.arrival}"
                    )
                pauses.append(pause)
        self._hops = hops
        self._pauses = tuple(pauses)

    # -- structure -------------------------------------------------------------

    @property
    def hops(self) -> tuple[Hop, ...]:
        return self._hops

    def __len__(self) -> int:
        return len(self._hops)

    def __iter__(self) -> Iterator[Hop]:
        return iter(self._hops)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Journey):
            return NotImplemented
        return self._hops == other._hops

    def __hash__(self) -> int:
        return hash(self._hops)

    @property
    def source(self) -> Hashable:
        """Node where the journey begins."""
        return self._hops[0].edge.source

    @property
    def destination(self) -> Hashable:
        """Node where the journey ends."""
        return self._hops[-1].edge.target

    @property
    def departure(self) -> int:
        """Date of the first edge traversal."""
        return self._hops[0].start

    @property
    def arrival(self) -> int:
        """Date at which the last traversal completes."""
        return self._hops[-1].arrival

    @property
    def duration(self) -> int:
        """Total elapsed time, waiting included (the *fastest* metric)."""
        return self.arrival - self.departure

    def nodes(self) -> tuple[Hashable, ...]:
        """The node sequence visited, length ``len(self) + 1``."""
        return (self.source,) + tuple(hop.edge.target for hop in self._hops)

    # -- waiting ---------------------------------------------------------------

    @property
    def pauses(self) -> tuple[int, ...]:
        """Waiting time before each hop after the first."""
        return self._pauses

    @property
    def max_pause(self) -> int:
        """Longest single pause (0 for direct journeys)."""
        return max(self._pauses, default=0)

    @property
    def total_waiting(self) -> int:
        """Sum of all pauses."""
        return sum(self._pauses)

    @property
    def is_direct(self) -> bool:
        """Whether every edge was taken the instant the previous arrival
        completed — the paper's *direct journey*."""
        return self.max_pause == 0

    @property
    def is_indirect(self) -> bool:
        return not self.is_direct

    def feasible_under(self, semantics: WaitingSemantics = NO_WAIT) -> bool:
        """Whether the environment described by ``semantics`` allows this
        journey (every pause within the waiting budget)."""
        return all(semantics.allows_pause(p) for p in self._pauses)

    # -- language view -----------------------------------------------------------

    @property
    def word(self) -> tuple[str, ...]:
        """The label sequence of the journey (symbols of ``Sigma``).

        Unlabeled edges contribute nothing, mirroring epsilon-transitions.
        """
        return tuple(hop.edge.label for hop in self._hops if hop.edge.label is not None)

    @property
    def word_str(self) -> str:
        """The word as a plain string (labels concatenated)."""
        return "".join(self.word)

    # -- composition ------------------------------------------------------------

    def extend(self, edge: Edge, start: int) -> "Journey":
        """A new journey with one more hop appended (validated)."""
        return Journey(self._hops + (Hop(edge, start),))

    def prefix(self, length: int) -> "Journey":
        """The journey made of the first ``length`` hops."""
        if not 1 <= length <= len(self._hops):
            raise InvalidJourneyError(
                f"prefix length {length} outside 1..{len(self._hops)}"
            )
        return Journey(self._hops[:length])

    @classmethod
    def concatenate(cls, first: "Journey", second: "Journey") -> "Journey":
        """Join two journeys end-to-start (validated, pause allowed)."""
        return cls(first.hops + second.hops)

    def __repr__(self) -> str:
        word = self.word_str or "(unlabeled)"
        return (
            f"Journey({self.source!r}@{self.departure} -> "
            f"{self.destination!r}@{self.arrival}, word={word!r}, "
            f"hops={len(self)}, max_pause={self.max_pause})"
        )
