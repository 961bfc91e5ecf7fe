"""Temporal connectivity classification.

The TVG literature (Casteigts et al., the paper's reference [1])
organizes dynamic networks into classes by what journeys exist.  The
classifier here covers the ones the examples and benchmarks speak about:

* every snapshot connected (the classic, rarely-true assumption);
* temporally connected over the window (``TC``: all ordered pairs joined
  by a journey) — separately under each waiting semantics;
* disconnected at every instant yet temporally connected — the paper's
  motivating regime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.analysis.reachability import reachability_ratio
from repro.core.semantics import NO_WAIT, WAIT, WaitingSemantics
from repro.core.snapshots import is_connected_at
from repro.core.tvg import TimeVaryingGraph

if TYPE_CHECKING:  # pragma: no cover — typing only
    from repro.core.engine import TemporalEngine


def is_temporally_connected(
    graph: TimeVaryingGraph,
    start_time: int,
    semantics: WaitingSemantics = WAIT,
    horizon: int | None = None,
    engine: "TemporalEngine | None" = None,
) -> bool:
    """Whether every ordered pair is joined by a feasible journey.

    The engine route counts pairs straight off the bit-packed
    reachability form (see :func:`~repro.analysis.reachability
    .reachability_ratio`), never expanding the boolean matrix.
    """
    return reachability_ratio(graph, start_time, semantics, horizon, engine) == 1.0


@dataclass(frozen=True)
class ConnectivityReport:
    """Snapshot-level and journey-level connectivity of one window."""

    snapshots_connected: int
    snapshots_total: int
    wait_ratio: float
    nowait_ratio: float

    @property
    def always_snapshot_connected(self) -> bool:
        return self.snapshots_connected == self.snapshots_total

    @property
    def never_snapshot_connected(self) -> bool:
        return self.snapshots_connected == 0

    @property
    def paper_regime(self) -> bool:
        """Disconnected at every instant, temporally connected with
        waiting — the regime the paper's introduction describes."""
        return self.never_snapshot_connected and self.wait_ratio == 1.0

    def label(self) -> str:
        if self.always_snapshot_connected:
            return "always-connected"
        if self.paper_regime:
            return "never-connected-yet-temporally-connected"
        if self.wait_ratio == 1.0:
            return "temporally-connected"
        return "partially-connected"


def classify_connectivity(
    graph: TimeVaryingGraph,
    start: int,
    end: int,
    engine: "TemporalEngine | None" = None,
) -> ConnectivityReport:
    """Classify a TVG's behaviour over ``[start, end)``.

    With ``engine=`` the two reachability ratios come from batched
    sweeps (one per semantics) instead of ``2n`` searches, counted off
    the bit-packed reachability form.
    """
    connected = sum(1 for t in range(start, end) if is_connected_at(graph, t))
    return ConnectivityReport(
        snapshots_connected=connected,
        snapshots_total=end - start,
        wait_ratio=reachability_ratio(graph, start, WAIT, horizon=end, engine=engine),
        nowait_ratio=reachability_ratio(
            graph, start, NO_WAIT, horizon=end, engine=engine
        ),
    )
