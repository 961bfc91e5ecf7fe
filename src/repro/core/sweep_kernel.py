"""The sweep kernel behind the all-pairs arrival matrix, and its oracle.

Every arrival sweep — in-process, process-sharded
(:mod:`repro.core.parallel`), on cluster workers
(:mod:`repro.service.cluster`), incremental — lowers to one plain-data
:class:`~repro.core.parallel.SweepPlan` and runs :func:`sweep_block`
over it: frontiers as ``(n, ceil(b/64))`` uint64 matrices (bit ``i`` of
node ``j``'s row: source ``i`` has mass pending at ``j``), pending
states bucketed *by date* — latencies are positive, so a date's masks
are final before any of its states expand — and each date processed as
vectorized row ops, its pushes merged per ``(arrival date, target)`` by
one ``np.bitwise_or.reduceat``.

:func:`sweep_block_bignum` is the ground-truth oracle, called by name
from the tests and ``benchmarks/bench_sweep_kernel.py`` only: a heap of
``(date, node)`` states whose masks are Python ints, independent of
every vectorization above, so ``tests/properties/test_property_kernel``
can prove the two bit-exactly equal under all three waiting semantics.
It reports :class:`SweepStats` on request.
"""

from __future__ import annotations

import heapq
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


@dataclass
class SweepStats:
    """Counters one oracle run fills in (pass ``stats=`` to collect).

    ``pops`` counts ``(date, node)`` heap entries that carried pending
    mass, ``dead_pops`` the entries whose mass was already consumed
    when popped, and ``pushes`` the successor merges performed.
    """

    pops: int = 0
    dead_pops: int = 0
    pushes: int = 0


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
    :func:`sweep_block` that does not depend on the source block,
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


def _radix_order(keys: Sequence[np.ndarray]) -> np.ndarray:
    """The stable order sorting contacts by ``keys``, most significant
    first.  Each key's offsets from its minimum (exact as uint64 even
    where the int64 subtraction wraps) are packed side by side into
    uint64 words, and LSD radix passes sort by the words' 16-bit digits:
    one stable ``argsort`` of uint16 digits (a counting sort in numpy)
    per digit — two over a 32-date window with under 2**11 nodes.
    """
    count = len(keys[0])
    words: list[tuple[np.ndarray, int]] = []
    for key in reversed(keys):
        if not count:
            break
        offsets = (key - key.min()).view(np.uint64)
        bits = int(offsets.max()).bit_length()
        if words and words[-1][1] + bits <= 64:
            packed, used = words[-1]
            words[-1] = (packed | offsets << np.uint64(used), used + bits)
        else:
            words.append((offsets, bits))
    order = np.arange(count)
    for packed, bits in words:
        for low in range(0, bits, 16):
            digits = (packed >> np.uint64(low)).astype(np.uint16)
            order = order[np.argsort(digits[order], kind="stable")]
    return order


def _bitset_lowering(plan: "SweepPlan") -> _BitsetLowering:
    """The plan's :class:`_BitsetLowering`, computed on first use and
    stored on the plan itself, so it lives exactly as long as the plan
    (plans are immutable, so it never goes stale).  Two threads lowering
    one plan at once both compute the same value; either may be kept.

    Contacts are put in (departure, arrival, target) order by
    :func:`_radix_order`, and the date axis is read off the sorted
    columns; nothing is sized by the date span.
    """
    lowered = plan.__dict__.get("_lowering")
    if lowered is not None:
        return lowered
    edge_count = len(plan.target_idx)
    src_of_edge = np.empty(edge_count, dtype=np.int64)
    src_of_edge[plan.out_edge_idx] = np.repeat(np.arange(plan.n), np.diff(plan.out_ptr))
    edge_of_contact = np.repeat(np.arange(edge_count), np.diff(plan.edge_ptr))
    tgt_flat = plan.target_idx[edge_of_contact]
    order = _radix_order((plan.dep, plan.arr, tgt_flat))
    dep_s = plan.dep[order]
    arr_s = plan.arr[order]
    tgt_s = tgt_flat[order]
    src_s = src_of_edge[edge_of_contact[order]]
    # Group starts: one merge group per distinct (departure, arrival,
    # target), sliced per date below.  The date axis: every departure,
    # every arrival (one per distinct departure and arrival), the seed.
    new_dep, new_pair, change = np.ones((3, len(order)), dtype=bool)
    new_dep[1:] = dep_s[1:] != dep_s[:-1]
    new_pair[1:] = new_dep[1:] | (arr_s[1:] != arr_s[:-1])
    change[1:] = new_pair[1:] | (tgt_s[1:] != tgt_s[:-1])
    group_starts_all = np.flatnonzero(change)
    dates = np.unique(np.concatenate((dep_s[new_dep], arr_s[new_pair], [plan.start_time])))
    date_lo = np.searchsorted(dep_s, dates, side="left")
    date_hi = np.searchsorted(dep_s, dates, side="right")
    group_lo = np.searchsorted(group_starts_all, date_lo, side="left")
    group_hi = np.searchsorted(group_starts_all, date_hi, side="left")
    lowered = _BitsetLowering(
        dep_s, arr_s, tgt_s, src_s, group_starts_all,
        dates, date_lo, date_hi, group_lo, group_hi,
    )
    object.__setattr__(plan, "_lowering", lowered)
    return lowered


def sweep_block(plan: "SweepPlan", sources: Sequence[int]) -> np.ndarray:
    """The arrival sweep of one source block: the date-bucketed uint64
    contact scan (see the module docstring).

    Row ``r`` of the returned ``(len(sources), plan.n)`` int64 matrix is
    the earliest-arrival row of source ``sources[r]`` — a source's
    arrival dates never depend on which other sources share the pass,
    so blocks stack into the full matrix.

    The sweep walks the lowering's date axis in increasing order.  At
    each date the pending bucket — a full-width ``(n, words)`` uint64
    matrix — stamps first arrivals (``new = mask & ~node_mask``), and
    the date's contacts depart carrying the source rows the semantics
    make eligible: ``node_mask`` rows under unbounded waiting (earlier
    arrivals' departure windows subsume later ones), the current
    bucket's under no-wait, and under ``wait[w]`` the OR of the buckets
    of ``[t - w, t]`` (an arrival *event*, re-arrivals included, keeps a
    bit eligible for ``w`` more dates, exactly the bignum sweep's
    full-mask push discipline).  Each contact is touched once per sweep.
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
    # contacts plus the date axis — cached on the plan object.
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

    for di, t in enumerate(dates.tolist()):
        bucket = buckets.pop(t, None)
        if bucket is not None:
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
