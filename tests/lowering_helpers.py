"""Per-element references for the three array passes of the pipeline.

Each function here is the straightforward version a vectorized pass
replaced, kept as the oracle the property tests and
``benchmarks/bench_compile.py`` check the production pass against:

* ``reference_compile`` — the compiled index, one ``presence.support``
  call per edge and the adjacency read off ``graph.out_edges``
  (:class:`~repro.core.index.CompiledTVG`);
* ``reference_lowering`` — the kernel's lowering by one three-key
  ``lexsort``, an ``np.unique`` date axis and a loop over the groups
  for the runs (:func:`~repro.core.sweep_kernel._bitset_lowering`);
* ``reference_growth_curve`` — the growth curve by sorting the
  off-diagonal arrivals and binary-searching each date
  (:func:`~repro.analysis.evolution.growth_curve_from_arrivals`).
"""

from __future__ import annotations

import numpy as np

from repro.core.index import is_structured
from repro.core.intervals import Interval
from repro.core.latency import ConstantLatency
from repro.core.sweep_kernel import UNREACHED, _BitsetLowering

#: The index arrays the array compile must reproduce exactly.
INDEX_ARRAYS = (
    "edge_ptr", "dates", "opaque", "out_ptr", "out_edge_idx", "target_idx",
    "const_latency",
)


def _pack(rows) -> tuple[np.ndarray, np.ndarray]:
    ptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(row) for row in rows], out=ptr[1:])
    flat = np.fromiter(
        (v for row in rows for v in row), dtype=np.int64, count=int(ptr[-1])
    )
    return ptr, flat


def reference_compile(graph, window: Interval) -> dict[str, np.ndarray]:
    """The :data:`INDEX_ARRAYS` of ``graph`` over ``window``, per edge."""
    if window.empty:
        window = Interval(window.start, window.start)
    edges = graph.edges
    node_index = {node: i for i, node in enumerate(graph.nodes)}
    edge_pos = {edge.key: i for i, edge in enumerate(edges)}
    lowered = [
        list(edge.presence.support(window).times())
        if is_structured(edge.presence)
        else None
        for edge in edges
    ]
    edge_ptr, dates = _pack([row or [] for row in lowered])
    out_ptr, out_edge_idx = _pack(
        [[edge_pos[edge.key] for edge in graph.out_edges(node)] for node in graph.nodes]
    )
    return {
        "edge_ptr": edge_ptr,
        "dates": dates,
        "opaque": np.array([row is None for row in lowered], dtype=bool),
        "out_ptr": out_ptr,
        "out_edge_idx": out_edge_idx,
        "target_idx": np.array(
            [node_index[edge.target] for edge in edges], dtype=np.int64
        ),
        "const_latency": np.array(
            [
                edge.latency.value if isinstance(edge.latency, ConstantLatency) else -1
                for edge in edges
            ],
            dtype=np.int64,
        ),
    }


def index_mismatches(index, reference: dict[str, np.ndarray]) -> list[str]:
    """The names in :data:`INDEX_ARRAYS` where ``index`` differs."""
    return [
        name
        for name in INDEX_ARRAYS
        if not np.array_equal(getattr(index, name), reference[name])
        or getattr(index, name).dtype != reference[name].dtype
    ]


def reference_lowering(plan) -> _BitsetLowering:
    """The kernel lowering of ``plan`` by ``lexsort`` and ``np.unique``,
    its runs found by a loop over the groups."""
    n = plan.n
    edge_count = len(plan.target_idx)
    src_of_edge = np.empty(edge_count, dtype=np.int64)
    src_of_edge[plan.out_edge_idx] = np.repeat(
        np.arange(n, dtype=np.int64), np.diff(plan.out_ptr)
    )
    edge_of_contact = np.repeat(
        np.arange(edge_count, dtype=np.int64), np.diff(plan.edge_ptr)
    )
    tgt_flat = plan.target_idx[edge_of_contact]
    order = np.lexsort((tgt_flat, plan.arr, plan.dep))
    dep_s = plan.dep[order]
    arr_s = plan.arr[order]
    tgt_s = tgt_flat[order]
    change = np.ones(len(order), dtype=bool)
    change[1:] = (
        (dep_s[1:] != dep_s[:-1])
        | (arr_s[1:] != arr_s[:-1])
        | (tgt_s[1:] != tgt_s[:-1])
    )
    group_starts = np.flatnonzero(change)
    dates = np.unique(
        np.concatenate((dep_s, arr_s, np.asarray([plan.start_time], dtype=np.int64)))
    )
    date_lo = np.searchsorted(dep_s, dates, side="left")
    date_hi = np.searchsorted(dep_s, dates, side="right")
    pairs = [(int(dep_s[g]), int(arr_s[g])) for g in group_starts]
    run_ptr = [g for g in range(len(pairs)) if g == 0 or pairs[g] != pairs[g - 1]]
    run_dep = np.asarray([pairs[g][0] for g in run_ptr], dtype=np.int64)
    return _BitsetLowering(
        src_s=src_of_edge[edge_of_contact[order]],
        dates=dates,
        date_lo=date_lo,
        date_hi=date_hi,
        run_lo=np.searchsorted(run_dep, dates, side="left"),
        run_hi=np.searchsorted(run_dep, dates, side="right"),
        run_ptr=np.asarray(run_ptr + [len(pairs)], dtype=np.int64),
        run_arr=np.asarray([pairs[g][1] for g in run_ptr], dtype=np.int64),
        group_offset=group_starts - date_lo[np.searchsorted(dates, dep_s[group_starts])],
        group_tgt=tgt_s[group_starts],
    )


def reference_growth_curve(
    arrival: np.ndarray, start: int, end: int
) -> list[tuple[int, float]]:
    """The growth curve by sorting the off-diagonal reached arrivals."""
    n = arrival.shape[0]
    if n <= 1:
        return [(t, 1.0) for t in range(start, end)]
    off_diagonal = arrival[~np.eye(n, dtype=bool)]
    arrivals = np.sort(off_diagonal[off_diagonal != UNREACHED])
    dates = np.arange(start, end, dtype=np.int64)
    joined = np.searchsorted(arrivals, dates, side="right")
    return [(int(t), int(count) / (n * (n - 1))) for t, count in zip(dates, joined)]
