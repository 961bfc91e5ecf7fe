"""Sweep plans and the process-sharded sweep executor.

Every arrival sweep — in-process, sharded, clustered, incremental —
runs :func:`~repro.core.sweep_kernel.sweep_block` over one
:class:`SweepPlan`: the sweep lowered to a handful of flat int64 arrays
plus its ints.  A worker cannot hold the graph: presences and latencies
are arbitrary Python callables (black-box
:class:`~repro.core.presence.FunctionPresence`, lambda latencies) that
may not pickle, and re-evaluating a black-box predicate in ``k``
workers would break the engine's at-most-once-per-(edge, date)
contract.  So :func:`build_sweep_plan` lowers in the parent, straight
from the compiled index's flat contact CSR: a window mask over the
compiled dates plus ``arr = dep + latency[edge]``.  Only black-box
edges (resolved through the engine's
:class:`~repro.core.index.LazyContactCache`, so each predicate still
fires at most once per (edge, date)) and callable latencies are
visited one edge at a time.  The plan pickles, ships over the wire as
its arrays (:mod:`repro.service.wire`), and lowers to the kernel's
sorted form with one ``lexsort``.

The sweep is partitionable by *source blocks*: the arrival dates
recorded for source ``i`` never depend on which other sources share
the pass (masks are bookkeeping, not state), so sweeping blocks
independently yields sub-matrices that stack into the exact full
matrix — element for element.  Where a full sweep runs is the
engine's *executor* (``TemporalEngine(graph, executor=...)``): any
object with a ``sweep(plan)`` method returning the ``(n, n)`` int64
matrix.  :class:`ProcessShards` runs the blocks in a process pool;
``tests/properties/test_property_parallel`` proves block stacking
equal to the one-block sweep under all three waiting semantics,
black-box edges included.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar, Hashable, Protocol

import numpy as np

from repro.core.index import splice_csr, split_csr
from repro.core.semantics import WaitingSemantics
from repro.core.sweep_kernel import sweep_block

__all__ = [
    "MIN_PARALLEL_NODES",
    "ProcessShards",
    "SweepExecutor",
    "SweepPlan",
    "build_sweep_plan",
    "partition_sources",
    "sweep_block",
]

if TYPE_CHECKING:  # pragma: no cover — typing only
    from repro.core.engine import TemporalEngine

#: Below this many nodes the per-process overhead (fork + pickling the
#: plan + stacking) dwarfs the sweep itself, so executors sweep
#: in-process instead.
MIN_PARALLEL_NODES: int = 8

#: Lowered plans kept per engine (FIFO eviction, current version only);
#: plans are O(edges x horizon) arrays, so a small handful bounds memory
#: while still covering the query mix between two mutations.
PLAN_MEMO_SIZE: int = 8


@dataclass(frozen=True, eq=False)
class SweepPlan:
    """One sweep lowered to flat int64 arrays in CSR form plus ints.

    Per contact: edge ``e``'s departure dates within ``[start_time,
    horizon)`` are ``dep[edge_ptr[e]:edge_ptr[e + 1]]``, sorted, and
    ``arr`` holds the aligned arrival dates (``dep + zeta(e, dep)``
    precomputed, so callable latencies never cross a process
    boundary).  Adjacency: the out-edges of node ``j`` in insertion
    order are ``out_edge_idx[out_ptr[j]:out_ptr[j + 1]]`` and
    ``target_idx[e]`` is the head node of edge ``e`` — the compiled
    index's CSR.  ``max_wait`` is the waiting bound (None for
    unbounded, 0 for no-wait).  The arrays are never written, so plans
    may share them; plans compare by content.
    """

    n: int
    out_ptr: np.ndarray
    out_edge_idx: np.ndarray
    target_idx: np.ndarray
    edge_ptr: np.ndarray
    dep: np.ndarray
    arr: np.ndarray
    start_time: int
    horizon: int
    max_wait: int | None

    #: The array fields, in wire order.
    ARRAYS: ClassVar[tuple[str, ...]] = (
        "out_ptr", "out_edge_idx", "target_idx", "edge_ptr", "dep", "arr",
    )

    @property
    def contacts(self) -> list[np.ndarray]:
        """Per edge: its departure dates (views of :attr:`dep`)."""
        return split_csr(self.edge_ptr, self.dep)

    @property
    def arrivals(self) -> list[np.ndarray]:
        """Per edge: its arrival dates (views of :attr:`arr`)."""
        return split_csr(self.edge_ptr, self.arr)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SweepPlan):
            return NotImplemented
        return (self.n, self.start_time, self.horizon, self.max_wait) == (
            other.n, other.start_time, other.horizon, other.max_wait
        ) and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in self.ARRAYS
        )

    __hash__ = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        for name in self.ARRAYS:
            getattr(self, name).flags.writeable = False


def build_sweep_plan(
    engine: "TemporalEngine",
    start_time: int,
    semantics: WaitingSemantics,
    horizon: int,
) -> tuple[list[Hashable], SweepPlan]:
    """Lower one sweep over ``engine``'s graph into a :class:`SweepPlan`.

    Runs entirely in the parent, from the compiled index's flat contact
    CSR: the compiled dates inside ``[start_time, horizon)`` are kept
    by one mask, and arrivals are ``dep + const_latency[edge]``.
    Black-box presences are resolved here, through the engine's
    :class:`~repro.core.index.LazyContactCache`, so arbitrary
    predicates never need to pickle and each still fires at most once
    per (edge, date) across the engine's lifetime; callable latencies
    are evaluated per contact of their edge.  Returns the node
    ordering alongside (the matrix axes).

    Plans are memoized on the engine by ``(version, start, horizon,
    max_wait)``, so repeated sweeps of the same query (the incremental
    path re-sweeping a cone right after the full sweep that seeded it,
    sharded blocks, retries) share one lowering.  A plan for an older
    version can never be asked for again, so building one drops them.
    """
    version = engine.graph.version
    key = (version, start_time, horizon, semantics.max_wait)
    memo = engine._plan_memo
    hit = memo.get(key)
    if hit is not None:
        nodes, plan = hit
        return list(nodes), plan
    index = engine.index_for(min(start_time, horizon), horizon)
    dates = index.dates
    keep = (dates >= start_time) & (dates < horizon)
    kept_before = np.zeros(len(dates) + 1, dtype=np.int64)
    np.cumsum(keep, out=kept_before[1:])
    # Black-box edges hold empty ranges in the flat arrays: splice their
    # cache-resolved dates in.
    plan_ptr, dep = splice_csr(
        kept_before[index.edge_ptr],
        dates[keep],
        {
            ei: index.opaque_contacts(ei, start_time, horizon)
            for ei in np.flatnonzero(index.opaque).tolist()
        },
    )
    latency = index.const_latency
    arr = dep + np.repeat(latency, np.diff(plan_ptr))
    for ei in np.flatnonzero(latency < 0).tolist():
        lo, hi = plan_ptr[ei], plan_ptr[ei + 1]
        zeta = index.edge_list[ei].latency
        arr[lo:hi] = [d + zeta(d) for d in dep[lo:hi].tolist()]
    plan = SweepPlan(
        n=len(index.nodes),
        out_ptr=index.out_ptr,
        out_edge_idx=index.out_edge_idx,
        target_idx=index.target_idx,
        edge_ptr=plan_ptr,
        dep=dep,
        arr=arr,
        start_time=start_time,
        horizon=horizon,
        max_wait=semantics.max_wait,
    )
    for stale in [k for k in memo if k[0] != version]:
        del memo[stale]
    if len(memo) >= PLAN_MEMO_SIZE:
        memo.pop(next(iter(memo)))
    memo[key] = (tuple(index.nodes), plan)
    return list(index.nodes), plan


def partition_sources(
    n: int, shards: int, oversplit: int = 1
) -> list[tuple[int, ...]]:
    """Split sources ``0..n-1`` into at most ``shards * oversplit``
    contiguous, balanced, non-empty blocks (sizes differ by at most
    one).

    ``oversplit > 1`` produces more blocks than workers on purpose: the
    cluster executor feeds them through a shared queue, so a finished
    worker picks up blocks a straggler would otherwise still own — work
    stealing by construction, with no rebalancing protocol.
    """
    shards = max(1, min(shards * max(1, oversplit), n))
    base, extra = divmod(n, shards)
    blocks: list[tuple[int, ...]] = []
    lo = 0
    for b in range(shards):
        size = base + (1 if b < extra else 0)
        if size:
            blocks.append(tuple(range(lo, lo + size)))
        lo += size
    return blocks


class SweepExecutor(Protocol):
    """Where a full sweep runs: ``sweep(plan)`` returns the plan's
    ``(n, n)`` int64 arrival matrix, element for element equal to
    ``sweep_block(plan, range(plan.n))``."""

    def sweep(self, plan: SweepPlan) -> np.ndarray: ...


#: The worker's copy of the plan, installed once per process by the pool
#: initializer — blocks are then the only per-task payload, so the plan
#: (the big object: O(|E| x window) contacts) is never re-pickled per
#: shard.
_WORKER_PLAN: SweepPlan | None = None


def _install_worker_plan(plan: SweepPlan) -> None:
    global _WORKER_PLAN
    _WORKER_PLAN = plan


def _sweep_task(sources: tuple[int, ...]) -> np.ndarray:
    """Module-level worker entry point (picklable by reference)."""
    return sweep_block(_WORKER_PLAN, sources)


def _pool_context():
    import multiprocessing

    # Fork keeps worker start cheap and inherits the warm interpreter;
    # platforms without it (or with it disabled) use their default.
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover — non-fork platforms
        return multiprocessing.get_context()


class ProcessShards:
    """A :class:`SweepExecutor` over ``count`` worker processes.

    Each sweep partitions the source set into ``count`` contiguous
    blocks, ships the plan to a fresh process pool (one task per
    block), and stacks the per-block sub-matrices — element for element
    equal to the in-process sweep.  One shard, empty source sets and
    graphs under :data:`MIN_PARALLEL_NODES` nodes sweep in-process, and
    so does every sweep on a platform that refuses to spawn workers (or
    kills them mid-flight), so the answer is never lost to sandboxing.
    """

    def __init__(self, count: int) -> None:
        if count < 1:
            raise ValueError(f"shard count must be >= 1, got {count}")
        self.count = count

    def sweep(self, plan: SweepPlan) -> np.ndarray:
        if self.count == 1 or plan.n < MIN_PARALLEL_NODES:
            return sweep_block(plan, range(plan.n))
        blocks = partition_sources(plan.n, self.count)
        try:
            from concurrent.futures import ProcessPoolExecutor
            from concurrent.futures.process import BrokenProcessPool

            with ProcessPoolExecutor(
                max_workers=len(blocks),
                mp_context=_pool_context(),
                initializer=_install_worker_plan,
                initargs=(plan,),
            ) as pool:
                parts = list(pool.map(_sweep_task, blocks))
        except (OSError, BrokenProcessPool):
            # Hosts that forbid subprocesses outright or kill workers
            # mid-flight.
            parts = [sweep_block(plan, block) for block in blocks]
        return np.vstack(parts)
