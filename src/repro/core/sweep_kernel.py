"""The native sweep kernels behind the all-pairs arrival matrix.

Every consumer of the batched arrival sweep — the serial
:meth:`~repro.core.engine.TemporalEngine.arrival_matrix`, the
process-sharded sweep (:mod:`repro.core.parallel`), the distributed
cluster workers (:mod:`repro.service.cluster`), and the service's
shared cached sweep — lowers the sweep to one plain-data
:class:`~repro.core.parallel.SweepPlan` and then runs a *kernel* over
it.  This module owns the kernels:

``bitset`` (the default)
    The frontier is a ``(n, ceil(b/64))`` uint64 numpy matrix (``b`` =
    source-block width): bit ``i`` of node ``j``'s row says source
    ``i``'s journeys have mass pending at ``j``.  Pending states are
    bucketed *by date* — arrivals are strictly later than departures
    (latencies are positive), so every mask pending at date ``t`` is
    final before any date-``t`` state is expanded, and a whole date
    processes as vectorized row ops: ``new = mask & ~node_mask``,
    ``node_mask |= new``, arrival stamping by ``np.unpackbits`` +
    ``np.nonzero`` on the newly-set bits, and successor pushes grouped
    per ``(arrival date, target)`` so frontier merges are one
    ``np.bitwise_or.reduceat`` and a fancy-indexed ``|=`` instead of a
    dict probe and a bignum OR per contact.

``bignum``
    The original per-state sweep: a heap of ``(date, node)`` states
    whose masks are Python arbitrary-precision ints.  Kept as the
    selectable ground-truth oracle — slower, but independent of every
    numpy vectorization above, so the property suites can prove the
    kernels bit-exactly equal (``tests/properties/test_property_kernel``
    does, under all three waiting semantics, black-box presences
    included).

Kernel choice threads through ``kernel=`` keywords from the engine, the
shard pool, the cluster executor, the service, and the CLI, and the
:envvar:`REPRO_SWEEP_KERNEL` environment variable overrides the default
for whole runs (the test suites re-run against either kernel via
``pytest --sweep-kernel``).

Both kernels report :class:`SweepStats` on request — pops, pushes, and
*dead pops* (heap entries whose pending mass was already consumed).
The date-bucketed queue pushes each date exactly once when its bucket
is created, so the bitset kernel has none by construction; the bignum
sweep historically spun dead pops on duplicate seed sources, fixed here
by seeding one heap entry per distinct ``(node, date)`` key.
"""

from __future__ import annotations

import heapq
import os
import weakref
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover — typing only
    from repro.core.parallel import SweepPlan

#: Sentinel arrival date for unreachable pairs — larger than any real
#: date, so ``matrix <= t`` comparisons need no special casing.
#: (Re-exported by :mod:`repro.core.engine`, its historical home.)
UNREACHED: int = np.iinfo(np.int64).max

#: The selectable sweep kernels, fastest first.
KERNELS: tuple[str, ...] = ("bitset", "bignum")

#: Kernel used when neither a ``kernel=`` argument nor the environment
#: names one.
DEFAULT_KERNEL: str = "bitset"

#: Environment override for the default kernel — handy for re-running a
#: whole suite or service against the bignum oracle without touching
#: call sites.
KERNEL_ENV: str = "REPRO_SWEEP_KERNEL"


def resolve_kernel(kernel: str | None = None) -> str:
    """The kernel a sweep actually runs: explicit argument first, then
    :envvar:`REPRO_SWEEP_KERNEL`, then :data:`DEFAULT_KERNEL`.

    Raises :class:`ValueError` for unknown names (including a bad
    environment value), so a typo fails the first sweep loudly instead
    of silently picking a default.
    """
    if kernel is None:
        kernel = os.environ.get(KERNEL_ENV) or DEFAULT_KERNEL
    if kernel not in KERNELS:
        raise ValueError(
            f"unknown sweep kernel {kernel!r}; choose from {', '.join(KERNELS)}"
        )
    return kernel


@dataclass
class SweepStats:
    """Counters one kernel run fills in (pass ``stats=`` to collect).

    ``pops`` counts queue entries that carried pending mass (dates for
    the bitset kernel, ``(date, node)`` states for bignum), ``dead_pops``
    the entries whose mass was already consumed when popped, and
    ``pushes`` the successor merges performed.
    """

    kernel: str = ""
    pops: int = 0
    dead_pops: int = 0
    pushes: int = 0


def sweep_block(
    plan: "SweepPlan",
    sources: Sequence[int],
    kernel: str | None = None,
    stats: SweepStats | None = None,
) -> np.ndarray:
    """The arrival sweep of one source block, on the chosen kernel.

    Row ``r`` of the returned ``(len(sources), plan.n)`` int64 matrix is
    the earliest-arrival row of source ``sources[r]`` — identical
    whichever kernel runs, because a source's arrival dates never depend
    on which other sources share the pass (proven bit-exact by the
    kernel property suite).
    """
    kernel = resolve_kernel(kernel)
    if stats is not None:
        stats.kernel = kernel
    if kernel == "bignum":
        return sweep_block_bignum(plan, sources, stats)
    return sweep_block_bitset(plan, sources, stats)


# -- incremental maintenance helpers ------------------------------------------


def affected_rows(previous: np.ndarray, tails: Sequence[int]) -> np.ndarray:
    """Source rows of ``previous`` whose answers a dirty edge can change.

    ``tails`` are the node indices at which some edge's schedule changed
    (its tail — where journeys board it).  Any journey whose arrival
    date changes, in either direction, crosses a dirty edge; the
    *first* dirty edge on that journey is reached by an all-clean
    prefix, which was equally valid before the mutation — so the old
    matrix already records a finite arrival at that edge's tail.  Rows
    with ``previous[i, tail] == UNREACHED`` for every dirty tail are
    therefore exact as they stand, under every waiting semantics (the
    argument never inspects departure eligibility, only prefix
    validity).  Conservative: a returned row may turn out unchanged.
    """
    if len(tails) == 0:
        return np.empty(0, dtype=np.int64)
    tail_idx = np.asarray(tuple(tails), dtype=np.int64)
    return np.flatnonzero(
        (previous[:, tail_idx] != UNREACHED).any(axis=1)
    ).astype(np.int64)


def merge_rows(
    previous: np.ndarray, rows: Sequence[int], block: np.ndarray
) -> np.ndarray:
    """A copy of ``previous`` with ``rows`` replaced by ``block``'s rows.

    ``block`` is the output of :func:`sweep_block` over exactly
    ``rows`` (in order); the merge never mutates ``previous`` — cached
    matrices stay valid for their own version.
    """
    merged = previous.copy()
    if len(rows):
        merged[np.asarray(tuple(rows), dtype=np.int64)] = block
    return merged


# -- the bitset kernel ---------------------------------------------------------


class _BitsetLowering(NamedTuple):
    """A plan's contacts sorted and grouped — everything in
    :func:`sweep_block_bitset` that does not depend on the source block,
    so repeated sweeps of one plan (sharded blocks, incremental cone
    re-sweeps) pay the O(contacts) lowering once."""

    dep_s: np.ndarray
    arr_s: np.ndarray
    tgt_s: np.ndarray
    src_s: np.ndarray
    group_starts_all: np.ndarray
    dates: np.ndarray
    date_lo: np.ndarray
    date_hi: np.ndarray
    group_lo: np.ndarray
    group_hi: np.ndarray


#: Cached lowerings keyed by plan identity (a weakref callback evicts
#: the slot when the plan is collected; the liveness check guards
#: against id reuse).  Plans are immutable, so identity is sound.
_BITSET_LOWERINGS: dict[int, tuple["weakref.ref", _BitsetLowering]] = {}


def _lower_plan_bitset(plan: "SweepPlan") -> _BitsetLowering:
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
    src_s = src_of_edge[edge_of_contact[order]]
    total_contacts = len(order)
    # Group starts: one merge group per distinct (departure, arrival,
    # target) — precomputed once, sliced per date below.
    if total_contacts:
        change = np.empty(total_contacts, dtype=bool)
        change[0] = True
        change[1:] = (
            (dep_s[1:] != dep_s[:-1])
            | (arr_s[1:] != arr_s[:-1])
            | (tgt_s[1:] != tgt_s[:-1])
        )
        group_starts_all = np.flatnonzero(change)
    else:
        group_starts_all = np.empty(0, dtype=np.int64)

    # The date axis: every departure, every arrival, and the seed date.
    dates = np.unique(
        np.concatenate(
            (dep_s, arr_s, np.asarray([plan.start_time], dtype=np.int64))
        )
    )
    date_lo = np.searchsorted(dep_s, dates, side="left")
    date_hi = np.searchsorted(dep_s, dates, side="right")
    group_lo = np.searchsorted(group_starts_all, date_lo, side="left")
    group_hi = np.searchsorted(group_starts_all, date_hi, side="left")
    return _BitsetLowering(
        dep_s, arr_s, tgt_s, src_s, group_starts_all,
        dates, date_lo, date_hi, group_lo, group_hi,
    )


def _bitset_lowering(plan: "SweepPlan") -> _BitsetLowering:
    key = id(plan)
    hit = _BITSET_LOWERINGS.get(key)
    if hit is not None and hit[0]() is plan:
        return hit[1]
    lowered = _lower_plan_bitset(plan)
    try:
        ref = weakref.ref(plan, lambda _r, _k=key: _BITSET_LOWERINGS.pop(_k, None))
    except TypeError:  # a plan stand-in that refuses weakrefs: skip caching
        return lowered
    _BITSET_LOWERINGS[key] = (ref, lowered)
    return lowered


def sweep_block_bitset(
    plan: "SweepPlan",
    sources: Sequence[int],
    stats: SweepStats | None = None,
) -> np.ndarray:
    """The date-bucketed uint64 contact-scan sweep (see the module
    docstring).

    All contacts are sorted ONCE by (departure, arrival, target); the
    sweep then walks the merged date axis (contact departures, contact
    arrivals, and the seed date) in increasing order.  At each date the
    pending bucket — a full-width ``(n, words)`` uint64 matrix — is
    applied (``new = mask & ~node_mask`` stamps first arrivals), and the
    date's contact slice departs carrying whichever source rows the
    semantics make eligible:

    * unbounded waiting — ``node_mask`` rows (every bit that has ever
      arrived at the tail; earlier arrivals' departure windows subsume
      later ones, so this is exact);
    * no-wait — the current bucket's rows (only bits arriving exactly at
      the departure date may continue);
    * bounded ``wait[w]`` — the OR of the buckets retained for the
      recency window ``[t - w, t]`` (an arrival *event*, re-arrivals of
      known bits included, keeps a bit eligible for ``w`` more dates —
      exactly the bignum sweep's full-mask push discipline).

    Each contact is therefore touched exactly once per sweep, and all
    pushes landing on the same (arrival date, target) merge with one
    ``np.bitwise_or.reduceat`` over pre-sorted group boundaries.
    """
    sources = tuple(sources)
    b = len(sources)
    n = plan.n
    arrival = np.full((b, n), UNREACHED, dtype=np.int64)
    if b == 0 or n == 0:
        return arrival
    words = (b + 63) >> 6
    start = plan.start_time
    horizon = plan.horizon
    max_wait = plan.max_wait
    # A wait bound no processed departure date can exhaust is unbounded
    # waiting in disguise (latest is pinned at the horizon either way).
    wait_like = max_wait is None or start + max_wait + 1 >= horizon

    # The source-independent lowering — flattened, sorted, grouped
    # contacts plus the date axis — cached per plan object.
    (
        _dep_s, arr_s, tgt_s, src_s, group_starts_all,
        dates, date_lo, date_hi, group_lo, group_hi,
    ) = _bitset_lowering(plan)

    #: bit i of node_mask[j] — source i's earliest arrival at j is stamped.
    node_mask = np.zeros((n, words), dtype=np.uint64)

    # Seed: one bucket at the start date carrying every source's own bit
    # (duplicate source nodes simply stack their bits in one row).
    seed = np.zeros((n, words), dtype=np.uint64)
    rows = np.arange(b, dtype=np.uint64)
    np.bitwise_or.at(
        seed,
        (np.asarray(sources, dtype=np.int64), (rows >> np.uint64(6)).astype(np.int64)),
        np.uint64(1) << (rows & np.uint64(63)),
    )
    buckets: dict[int, np.ndarray] = {start: seed}
    #: bounded-wait recency window: the (date, bucket) pairs with
    #: ``date in [t - max_wait, t]``, oldest first.
    retained: deque[tuple[int, np.ndarray]] = deque()

    pops = push_count = 0
    for di, t in enumerate(dates.tolist()):
        bucket = buckets.pop(t, None)
        if bucket is not None:
            pops += 1
            active = np.flatnonzero(bucket.any(axis=1))
            masks = bucket[active]
            known = node_mask[active]
            new = masks & ~known
            if new.any():
                node_mask[active] = known | new
                # Newly-set bits, little-endian throughout, so unpacked
                # column s is exactly source row s of the block.
                bits = np.unpackbits(
                    new.astype("<u8", copy=False).view(np.uint8),
                    axis=1,
                    bitorder="little",
                )
                hit_rows, hit_sources = np.nonzero(bits[:, :b])
                arrival[hit_sources, active[hit_rows]] = t
        if t >= horizon:
            continue
        lo = int(date_lo[di])
        hi = int(date_hi[di])
        if not wait_like and max_wait > 0:
            if bucket is not None:
                retained.append((t, bucket))
            while retained and retained[0][0] < t - max_wait:
                retained.popleft()
        if lo == hi:
            continue

        # Which source rows may depart on this date's contacts.
        srcs = src_s[lo:hi]
        if wait_like:
            eligible = node_mask[srcs]
        elif max_wait == 0:
            if bucket is None:
                continue
            eligible = bucket[srcs]
        else:
            if not retained:
                continue
            it = iter(retained)
            eligible = next(it)[1][srcs].copy()
            for _d, held in it:
                eligible |= held[srcs]
        push_count += hi - lo

        # Merge pushes sharing an (arrival date, target) with ONE
        # or-reduce over the pre-sorted groups, drop the empty ones, and
        # scatter each arrival date's rows into its bucket.
        gs = group_starts_all[group_lo[di] : group_hi[di]]
        merged = np.bitwise_or.reduceat(eligible, gs - lo, axis=0)
        keep = np.flatnonzero(merged.any(axis=1))
        if keep.size == 0:
            continue
        merged = merged[keep]
        group_arr = arr_s[gs[keep]]
        group_tgt = tgt_s[gs[keep]]
        date_bounds = np.append(
            np.flatnonzero(np.r_[True, group_arr[1:] != group_arr[:-1]]),
            len(group_arr),
        )
        for a, z in zip(date_bounds[:-1], date_bounds[1:]):
            date = int(group_arr[a])
            bucket_d = buckets.get(date)
            if bucket_d is None:
                bucket_d = np.zeros((n, words), dtype=np.uint64)
                buckets[date] = bucket_d
            bucket_d[group_tgt[a:z]] |= merged[a:z]

    if stats is not None:
        # The sorted date axis visits each date exactly once, so the
        # bitset kernel has no dead pops by construction — recorded so
        # the invariant is observable (and pinned by the unit tests).
        stats.pops, stats.dead_pops, stats.pushes = pops, 0, push_count
    return arrival


# -- the bignum oracle ---------------------------------------------------------


def sweep_block_bignum(
    plan: "SweepPlan",
    sources: Sequence[int],
    stats: SweepStats | None = None,
) -> np.ndarray:
    """The per-state Python-int sweep — the ground-truth oracle.

    Masks are block positions, so a block of ``b`` sources pays for
    ``b``-bit merges however large the full graph is.  Each pending
    ``(node, date)`` key gets exactly one heap entry (created with the
    key, merged silently after), including duplicate seed sources — the
    dead-pop churn the date-bucketed kernel designs away.
    """
    sources = tuple(sources)
    arrival = np.full((len(sources), plan.n), UNREACHED, dtype=np.int64)
    node_mask = [0] * plan.n
    pending: dict[tuple[int, int], int] = {}
    heap: list[tuple[int, int]] = []
    start = plan.start_time
    for row, node_idx in enumerate(sources):
        key = (node_idx, start)
        if key not in pending:
            heapq.heappush(heap, (start, node_idx))
            pending[key] = 0
        pending[key] |= 1 << row
    horizon = plan.horizon
    max_wait = plan.max_wait
    out_ptr = plan.out_ptr.tolist()
    out_edge_idx = plan.out_edge_idx.tolist()
    target_idx = plan.target_idx.tolist()
    edge_ptr = plan.edge_ptr.tolist()
    dep = plan.dep.tolist()
    arr = plan.arr.tolist()
    pops = dead_pops = push_count = 0
    while heap:
        time, node_idx = heapq.heappop(heap)
        mask = pending.pop((node_idx, time), 0)
        if not mask:
            dead_pops += 1
            continue
        pops += 1
        new = mask & ~node_mask[node_idx]
        if new:
            node_mask[node_idx] |= new
            while new:
                low = new & -new
                arrival[low.bit_length() - 1, node_idx] = time
                new ^= low
        if time >= horizon:
            continue
        latest = horizon if max_wait is None else min(horizon, time + max_wait + 1)
        for ei in out_edge_idx[out_ptr[node_idx] : out_ptr[node_idx + 1]]:
            lo = bisect_left(dep, time, edge_ptr[ei], edge_ptr[ei + 1])
            hi = bisect_left(dep, latest, lo, edge_ptr[ei + 1])
            if lo == hi:
                continue
            target = target_idx[ei]
            for k in range(lo, hi):
                push_count += 1
                key = (target, arr[k])
                existing = pending.get(key)
                if existing is None:
                    pending[key] = mask
                    heapq.heappush(heap, (arr[k], target))
                elif existing | mask != existing:
                    pending[key] = existing | mask
    if stats is not None:
        stats.pops, stats.dead_pops, stats.pushes = pops, dead_pops, push_count
    return arrival
