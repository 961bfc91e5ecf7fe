"""Sweep plans and the process-sharded sweep executor.

Every arrival sweep — in-process, sharded, clustered, incremental —
runs :func:`~repro.core.sweep_kernel.sweep_block` over one
:class:`SweepPlan`: the sweep lowered to a handful of flat int64 arrays
plus its ints.  A worker cannot hold the graph: presences and latencies
may be arbitrary Python callables that do not pickle, and re-evaluating
a black-box predicate in ``k`` workers would break the engine's
at-most-once-per-(edge, date) contract.  So :func:`build_sweep_plan`
lowers in the parent, straight from the compiled index's flat contact
CSR (the index's own arrays when its window is the plan's, else a
window mask, plus ``arr = dep + latency[edge]``); only black-box edges
(through the engine's :class:`~repro.core.index.LazyContactCache`) and
callable latencies are visited one edge at a time.  A presence swap is
spliced once, into the index; the next plan reads it from there.  The
plan pickles and ships over the wire as its arrays
(:mod:`repro.service.wire`).

The sweep is partitionable by *source blocks*: the arrival dates
recorded for source ``i`` never depend on which other sources share
the pass, so blocks swept independently stack into the exact full
matrix.  Where a full sweep runs is the engine's *executor*
(``TemporalEngine(graph, executor=...)``): any object with a
``sweep(plan)`` method returning the ``(n, n)`` matrix of arrival
offsets in the plan's
:func:`~repro.core.sweep_kernel.offset_dtype`.
:class:`ProcessShards` runs the blocks in a process pool;
``tests/properties/test_property_parallel`` proves block stacking
equal to the one-block sweep under all three waiting semantics,
black-box edges included.
"""

from __future__ import annotations

import hashlib
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

#: Lowered plans kept per engine (FIFO eviction, newest version only);
#: plans are O(contacts) arrays, so a small handful bounds memory while
#: still covering the query mix between two mutations.
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
    unbounded, 0 for no-wait).  The arrays are read-only, so plans and
    the index may share them: a plan over the whole compiled window
    holds the index's own ``edge_ptr`` and ``dates`` as ``edge_ptr``
    and ``dep``.  Plans compare by content.

    State derived from the content — :attr:`fingerprint`, the kernel's
    lowering (:func:`~repro.core.sweep_kernel._bitset_lowering`) and
    its offset dtype (:func:`~repro.core.sweep_kernel.offset_dtype`) —
    is computed at most once per plan object and cached on it, so it
    lives exactly as long as the plan; it is never part of equality or
    of the wire spec.
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
    def fingerprint(self) -> str:
        """The plan's content identity: the first 16 hex characters of a
        sha256 over the four header ints (``max_wait=None`` distinct
        from 0) and, per array in :attr:`ARRAYS` order, its length and
        little-endian int64 bytes — the lengths keep plans whose arrays
        concatenate alike but split differently apart."""
        cached = self.__dict__.get("_fingerprint")
        if cached is None:
            digest = hashlib.sha256(
                f"{self.n} {self.start_time} {self.horizon} {self.max_wait}".encode()
            )
            for name in self.ARRAYS:
                array = np.ascontiguousarray(getattr(self, name), dtype="<i8")
                digest.update(len(array).to_bytes(8, "little"))
                digest.update(array)
            cached = digest.hexdigest()[:16]
            object.__setattr__(self, "_fingerprint", cached)
        return cached

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
    CSR (see :func:`_window_rows`).  Black-box presences are resolved
    here, through the engine's
    :class:`~repro.core.index.LazyContactCache`, so arbitrary
    predicates never need to pickle and each still fires at most once
    per (edge, date) across the engine's lifetime; callable latencies
    are evaluated per contact of their edge.  Returns the node
    ordering alongside (the matrix axes).

    Plans are memoized on the engine by ``(version, start, horizon,
    max_wait)``, so repeated sweeps of the same query (sharded blocks,
    retries) share one lowering.  A plan for an older version can never
    be asked for again, so building one drops them.  Presence swaps
    need no plan-side work: :meth:`~repro.core.index.CompiledTVG.apply_deltas`
    splices them into the index, and the next build reads it.
    """
    version = engine.graph.version
    key = (version, start_time, horizon, semantics.max_wait)
    memo = engine._plan_memo
    hit = memo.get(key)
    if hit is not None:
        nodes, plan = hit
        return list(nodes), plan
    index = engine.index_for(min(start_time, horizon), horizon)
    plan_ptr, dep, arr = _window_rows(index, start_time, horizon)
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


def _window_rows(
    index, start_time: int, horizon: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(edge_ptr, dep, arr)`` of every edge's contacts in ``[start_time,
    horizon)``: the index's own ``edge_ptr`` and ``dates`` when its
    window lies inside (every date is kept), else one mask over its
    flat dates; the black-box edges' dates spliced in from the cache;
    ``arr = dep + latency`` with callable latencies evaluated per
    contact of their edge."""
    plan_ptr, dep = index.edge_ptr, index.dates
    if not start_time <= index.window.start <= index.window.end <= horizon:
        keep = (dep >= start_time) & (dep < horizon)
        kept_before = np.zeros(len(dep) + 1, dtype=np.int64)
        np.cumsum(keep, out=kept_before[1:])
        plan_ptr, dep = kept_before[plan_ptr], dep[keep]
    # Black-box edges hold empty ranges in the flat arrays: splice their
    # cache-resolved dates in.
    opaque = np.flatnonzero(index.opaque).tolist()
    rows = {ei: index.opaque_contacts(ei, start_time, horizon) for ei in opaque}
    plan_ptr, dep = splice_csr(plan_ptr, dep, rows)
    latency = index.const_latency
    arr = dep + np.repeat(latency, np.diff(plan_ptr))
    for ei in np.flatnonzero(latency < 0).tolist():
        lo, hi = plan_ptr[ei], plan_ptr[ei + 1]
        zeta = index.edge_list[ei].latency
        arr[lo:hi] = [d + zeta(d) for d in dep[lo:hi].tolist()]
    return plan_ptr, dep, arr


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
    ``(n, n)`` arrival-offset matrix, dtype included, element for
    element equal to ``sweep_block(plan, range(plan.n))``."""

    def sweep(self, plan: SweepPlan) -> np.ndarray: ...


#: The worker's copy of the plan, installed once per process by the pool
#: initializer — blocks are then the only per-task payload, so the plan
#: (the big object: O(contacts) arrays) is never re-pickled per shard.
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
