"""Reachability matrices across waiting semantics.

The node-to-node view of the waiting gap: the same TVG, the same time
window, two boolean matrices — who can reach whom with and without
buffering.  The entrywise difference is the operational payoff of
waiting that the E6/E8 benchmarks quantify.

Every function accepts an ``engine=`` hook: with a
:class:`~repro.core.engine.TemporalEngine` the matrix is produced by the
engine's batched multi-source sweep — ONE pass over the temporal state
space instead of ``n`` independent searches (and ``2n`` for the gap
matrix) — with results identical to the interpretive path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable

import numpy as np

from repro.core.semantics import NO_WAIT, WAIT, WaitingSemantics
from repro.core.traversal import reachable_nodes
from repro.core.tvg import TimeVaryingGraph

if TYPE_CHECKING:  # pragma: no cover — typing only
    from repro.core.engine import TemporalEngine


def reachability_matrix(
    graph: TimeVaryingGraph,
    start_time: int,
    semantics: WaitingSemantics = NO_WAIT,
    horizon: int | None = None,
    engine: "TemporalEngine | None" = None,
) -> tuple[list[Hashable], np.ndarray]:
    """Boolean matrix ``M[i, j]`` = node ``j`` reachable from node ``i``.

    Diagonal entries are True (the trivial journey).  Returns the node
    ordering alongside so callers can label the axes.
    """
    if engine is not None:
        engine.require_graph(graph, "reachability_matrix")
        return engine.reachability_matrix(start_time, semantics, horizon)
    nodes = list(graph.nodes)
    index = {node: i for i, node in enumerate(nodes)}
    matrix = np.zeros((len(nodes), len(nodes)), dtype=bool)
    for node in nodes:
        row = index[node]
        matrix[row, row] = True
        for reached in reachable_nodes(graph, node, start_time, semantics, horizon):
            matrix[row, index[reached]] = True
    return nodes, matrix


def reachability_ratio(
    graph: TimeVaryingGraph,
    start_time: int,
    semantics: WaitingSemantics = NO_WAIT,
    horizon: int | None = None,
    engine: "TemporalEngine | None" = None,
) -> float:
    """Fraction of ordered pairs ``(u, v), u != v`` connected by a journey.

    With an engine the count comes off the bit-packed form
    (:meth:`~repro.core.engine.TemporalEngine.reachability_packed`):
    a popcount over ``ceil(n/8) x n`` bytes, never materializing the
    boolean matrix (``packbits`` zero-pads the tail bits, so the byte
    popcount needs no edge-of-column masking).
    """
    if engine is not None:
        engine.require_graph(graph, "reachability_ratio")
        nodes, packed = engine.reachability_packed(start_time, semantics, horizon)
        n = len(nodes)
        if n <= 1:
            return 1.0
        reachable_pairs = int(np.bitwise_count(packed).sum()) - n  # drop the diagonal
        return reachable_pairs / (n * (n - 1))
    nodes, matrix = reachability_matrix(graph, start_time, semantics, horizon)
    n = len(nodes)
    if n <= 1:
        return 1.0
    reachable_pairs = int(matrix.sum()) - n  # drop the diagonal
    return reachable_pairs / (n * (n - 1))


def semantics_gap_matrix(
    graph: TimeVaryingGraph,
    start_time: int,
    horizon: int | None = None,
    engine: "TemporalEngine | None" = None,
) -> tuple[list[Hashable], np.ndarray]:
    """Pairs reachable with waiting but not without.

    ``M[i, j]`` is True exactly where buffering is *necessary* for the
    pair — the paper's gap, node by node.  With an engine this is two
    batched sweeps (one per semantics) instead of ``2n`` searches.
    """
    nodes, with_wait = reachability_matrix(graph, start_time, WAIT, horizon, engine)
    _same, without = reachability_matrix(graph, start_time, NO_WAIT, horizon, engine)
    return nodes, with_wait & ~without
