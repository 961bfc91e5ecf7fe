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
one ``np.bitwise_or.reduceat``.  A journey leaves only nodes it has
reached, so a block swept on a plan no sweep has lowered yet lowers
only the contacts its sources' static forward closure can ride.  Bits
are only ever set, so the scan ends at the date that stamps the last
bit the block can stamp.

The kernel answers in one compact form: arrival *offsets* from the
plan's ``start_time`` in :func:`offset_dtype`, the narrowest unsigned
dtype whose max — the unreached sentinel — exceeds every arrival offset
the plan can produce (uint8 on a 32-date window).
:func:`offsets_to_dates` turns them into the int64 dates with
:data:`UNREACHED` that :meth:`~repro.core.engine.TemporalEngine.arrival_matrix`
returns.

:func:`sweep_block_bignum` is the ground-truth oracle, called by name
from the tests and ``benchmarks/bench_sweep_kernel.py`` only: a heap of
``(date, node)`` states whose masks are Python ints, independent of
every vectorization above (it returns int64 dates), so
``tests/properties/test_property_kernel`` can prove the two bit-exactly
equal under all three waiting semantics.  It reports
:class:`SweepStats` on request.
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

#: Sentinel arrival date for unreachable pairs in the int64 date form —
#: larger than any real date, so ``matrix <= t`` comparisons need no
#: special casing.  (Re-exported by :mod:`repro.core.engine`.)
UNREACHED: int = np.iinfo(np.int64).max

#: The arrival-offset dtypes, narrowest first.
OFFSET_DTYPES: tuple[np.dtype, ...] = tuple(
    np.dtype(t) for t in (np.uint8, np.uint16, np.uint32, np.uint64)
)


def offset_dtype(plan: "SweepPlan") -> np.dtype:
    """The narrowest of :data:`OFFSET_DTYPES` whose max (the unreached
    sentinel) exceeds ``plan``'s largest arrival offset from its
    ``start_time`` — arrivals are the only dates a sweep stamps besides
    the start itself.  Computed once per plan and cached on it, like
    the plan's lowering."""
    dtype = plan.__dict__.get("_offset_dtype")
    if dtype is None:
        largest = int(plan.arr.max()) - plan.start_time if len(plan.arr) else 0
        dtype = next(t for t in OFFSET_DTYPES if largest < np.iinfo(t).max)
        object.__setattr__(plan, "_offset_dtype", dtype)
    return dtype


def sentinel(offsets: np.ndarray) -> int:
    """The unreached sentinel of an offset matrix: its dtype's max."""
    return int(np.iinfo(offsets.dtype).max)


def offsets_to_dates(offsets: np.ndarray, start_time: int) -> np.ndarray:
    """Offsets from ``start_time`` as int64 dates, the sentinel as
    :data:`UNREACHED`.  Every real arrival date fits int64, so the
    (wrapping) int64 addition is exact even for uint64 offsets."""
    dates = offsets.astype(np.int64) + np.int64(start_time)
    dates[offsets == sentinel(offsets)] = UNREACHED
    return dates


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
    """Source rows of the offset matrix ``previous`` whose answers a
    dirty edge can change.

    ``tails`` are the node indices at which some edge's schedule changed
    (its tail — where journeys board it).  Any journey whose arrival
    date changes, in either direction, crosses a dirty edge; the
    *first* dirty edge on that journey is reached by an all-clean
    prefix, which was equally valid before the mutation — so the old
    matrix already records a finite arrival at that edge's tail.  Rows
    holding the sentinel at every dirty tail are therefore exact as they
    stand, under every waiting semantics (the argument never inspects
    departure eligibility, only prefix validity).  Conservative: a
    returned row may turn out unchanged.
    """
    if len(tails) == 0:
        return np.empty(0, dtype=np.int64)
    tail_idx = np.asarray(tuple(tails), dtype=np.int64)
    return np.flatnonzero(
        (previous[:, tail_idx] != sentinel(previous)).any(axis=1)
    ).astype(np.int64)


def merge_rows(
    previous: np.ndarray, rows: Sequence[int], block: np.ndarray
) -> np.ndarray:
    """A copy of ``previous`` in ``block``'s dtype, with ``rows``
    replaced by ``block``'s rows.

    ``block`` is the output of :func:`sweep_block` over exactly
    ``rows`` (in order), as
    :meth:`~repro.core.engine.TemporalEngine.arrival_matrix_incremental`
    returns it.  A ``previous`` of another dtype (the plan's largest
    offset moved across a dtype bound) is recast sentinel to sentinel;
    every offset outside ``rows`` fits the new dtype, because those
    rows' answers did not change.  The merge never mutates ``previous``;
    a caller that owns ``previous`` and keeps its dtype can write the
    block into it in place instead, as the query service does.
    """
    merged = previous.astype(block.dtype)
    if merged.dtype != previous.dtype:
        merged[previous == sentinel(previous)] = sentinel(merged)
    if len(rows):
        merged[np.asarray(tuple(rows), dtype=np.int64)] = block
    return merged


# -- the bitset kernel ---------------------------------------------------------


class _BitsetLowering(NamedTuple):
    """A plan's contacts sorted and grouped — everything in
    :func:`sweep_block` that does not depend on the source block,
    so repeated sweeps of one plan (sharded blocks, incremental cone
    re-sweeps) pay the O(contacts) lowering once.

    Contacts are in (departure, arrival, target) order; ``src_s`` is
    each one's source node.  A *group* is one distinct (departure,
    arrival, target) — the pushes one OR merges — and a *run* the
    groups of one departure date that share an arrival date.  Date
    ``dates[d]`` departs contacts ``date_lo[d]:date_hi[d]`` and runs
    ``run_lo[d]:run_hi[d]``; run ``r`` holds groups
    ``run_ptr[r]:run_ptr[r + 1]`` and arrives at ``run_arr[r]``; group
    ``g`` starts ``group_offset[g]`` contacts into its departure date
    and lands on node ``group_tgt[g]``.
    """

    src_s: np.ndarray
    dates: np.ndarray
    date_lo: np.ndarray
    date_hi: np.ndarray
    run_lo: np.ndarray
    run_hi: np.ndarray
    run_ptr: np.ndarray
    run_arr: np.ndarray
    group_offset: np.ndarray
    group_tgt: np.ndarray


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


def _csr_rows(ptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(positions, owner)``: the positions ``ptr[r]:ptr[r + 1]`` of
    each row ``r`` in ``rows``, concatenated in order, and for each the
    index into ``rows`` it came from."""
    lo = ptr[rows]
    lengths = ptr[rows + 1] - lo
    owner = np.repeat(np.arange(len(rows)), lengths)
    ends = np.cumsum(lengths)
    skip = np.repeat(ends - lengths - lo, lengths)
    return np.arange(len(owner)) - skip, owner


def _closure_edges(
    plan: "SweepPlan", sources: Sequence[int]
) -> tuple[np.ndarray, np.ndarray] | None:
    """``(edges, tails)``: the edges, ascending, whose contacts a sweep
    of ``sources`` can ride, and each one's tail node.  A journey
    leaves only nodes it has reached, so an edge with a contact counts
    when its tail lies in the static forward closure of ``sources``
    over such edges.  None when that is every edge with a contact.
    Taken frontier by frontier, each node and edge once, the tails read
    off the walk; a node reached by several edges at once joins the
    next frontier once, through the one position its ``slot`` kept (no
    sort)."""
    live = plan.edge_ptr[1:] > plan.edge_ptr[:-1]
    reached = np.zeros(plan.n, dtype=bool)
    kept = np.zeros(len(live), dtype=bool)
    tail = np.empty(len(live), dtype=np.int64)
    slot = np.empty(plan.n, dtype=np.int64)
    frontier = np.unique(np.asarray(sources, dtype=np.int64))
    count = 0
    while len(frontier):
        reached[frontier] = True
        count += len(frontier)
        if count == plan.n:
            return None
        positions, owner = _csr_rows(plan.out_ptr, frontier)
        out = plan.out_edge_idx[positions]
        riding = live[out]
        out = out[riding]
        kept[out] = True
        tail[out] = frontier[owner[riding]]
        heads = plan.target_idx[out]
        heads = heads[~reached[heads]]
        positions = np.arange(len(heads))
        slot[heads] = positions
        frontier = heads[slot[heads] == positions]
    edges = np.flatnonzero(kept)
    return None if len(edges) == np.count_nonzero(live) else (edges, tail[edges])


def _bitset_lowering(
    plan: "SweepPlan", sources: Sequence[int] | None = None
) -> _BitsetLowering:
    """The plan's :class:`_BitsetLowering`, computed on first use and
    stored on the plan itself, so it lives exactly as long as the plan
    (plans are immutable, so it never goes stale).  Two threads lowering
    one plan at once both compute the same value; either may be kept.

    Given the ``sources`` of a sweep, a plan not lowered yet lowers only
    the contacts of :func:`_closure_edges` — the rest can never carry
    one of their bits — with the source nodes its walk found, and that
    restricted lowering is returned but never stored; a closure that
    reaches every contact lowers in full, with every edge's source.

    Contacts are put in (departure, arrival, target) order by
    :func:`_radix_order`, and the date axis is read off the sorted
    columns; nothing is sized by the date span.
    """
    lowered = plan.__dict__.get("_lowering")
    if lowered is not None:
        return lowered
    closure = None if sources is None else _closure_edges(plan, sources)
    if closure is None:
        edge_count = len(plan.target_idx)
        src_of_edge = np.empty(edge_count, dtype=np.int64)
        src_of_edge[plan.out_edge_idx] = np.repeat(
            np.arange(plan.n), np.diff(plan.out_ptr)
        )
        edge_of_contact = np.repeat(np.arange(edge_count), np.diff(plan.edge_ptr))
        src_of_contact = src_of_edge[edge_of_contact]
        dep, arr = plan.dep, plan.arr
    else:
        edges, tails = closure
        contact, owner = _csr_rows(plan.edge_ptr, edges)
        edge_of_contact, src_of_contact = edges[owner], tails[owner]
        dep, arr = plan.dep[contact], plan.arr[contact]
    tgt_flat = plan.target_idx[edge_of_contact]
    order = _radix_order((dep, arr, tgt_flat))
    dep_s = dep[order]
    arr_s = arr[order]
    tgt_s = tgt_flat[order]
    # Boundaries of departure dates, of (departure, arrival) pairs and
    # of (departure, arrival, target) groups.  The date axis: every
    # departure, every arrival (one per distinct pair), the seed.
    new_dep, new_pair, change = np.ones((3, len(order)), dtype=bool)
    new_dep[1:] = dep_s[1:] != dep_s[:-1]
    new_pair[1:] = new_dep[1:] | (arr_s[1:] != arr_s[:-1])
    change[1:] = new_pair[1:] | (tgt_s[1:] != tgt_s[:-1])
    group_starts = np.flatnonzero(change)
    run_ptr = np.append(np.flatnonzero(new_pair[group_starts]), len(group_starts))
    run_starts = group_starts[run_ptr[:-1]]
    dep_starts = np.flatnonzero(new_dep)
    dates = np.unique(np.concatenate((dep_s[dep_starts], arr_s[run_starts], [plan.start_time])))
    date_lo = np.searchsorted(dep_s, dates, side="left")
    date_hi = np.searchsorted(dep_s, dates, side="right")
    lowered = _BitsetLowering(
        src_s=src_of_contact[order],
        dates=dates,
        date_lo=date_lo,
        date_hi=date_hi,
        run_lo=np.searchsorted(run_starts, date_lo, side="left"),
        run_hi=np.searchsorted(run_starts, date_hi, side="left"),
        run_ptr=run_ptr,
        run_arr=arr_s[run_starts],
        group_offset=group_starts - dep_starts[np.cumsum(new_dep[group_starts]) - 1],
        group_tgt=tgt_s[group_starts],
    )
    if closure is None:
        object.__setattr__(plan, "_lowering", lowered)
    return lowered


def sweep_block(plan: "SweepPlan", sources: Sequence[int]) -> np.ndarray:
    """The arrival sweep of one source block: the date-bucketed uint64
    contact scan (see the module docstring).

    Row ``r`` of the returned ``(len(sources), plan.n)`` matrix, in
    :func:`offset_dtype`, holds the earliest-arrival offsets from
    ``plan.start_time`` of source ``sources[r]`` — the sentinel where
    no journey arrives.  A source's arrivals never depend on which
    other sources share the pass, so blocks stack into the full matrix.

    The sweep walks the lowering's date axis in increasing order.  At
    each date the pending bucket — a full-width ``(n, words)`` uint64
    matrix — stamps first arrivals (``new = mask & ~node_mask``), and
    the date's contacts depart carrying the source rows the semantics
    make eligible: ``node_mask`` rows under unbounded waiting (earlier
    arrivals' departure windows subsume later ones), the current
    bucket's under no-wait, and under ``wait[w]`` the OR of the buckets
    of ``[t - w, t]`` (an arrival *event*, re-arrivals included, keeps a
    bit eligible for ``w`` more dates, exactly the bignum sweep's
    full-mask push discipline).  Each contact of the lowering — all of
    them, or on a plan not lowered yet those of the block's closure —
    is touched at most once per sweep, and each run ORs its merged
    groups into its arrival date's bucket.

    The walk stops at the first date after which every stampable bit
    is stamped: a row's bit at its own source node, and every row's bit
    at each target of a lowered contact (so a closure-restricted block
    counts only its closure).  No other bit can ever be set, and the
    kernel never unsets one, so no later date can change the answer,
    under any semantics.
    """
    sources = tuple(sources)
    b = len(sources)
    n = plan.n
    dtype = offset_dtype(plan)
    unreached = int(np.iinfo(dtype).max)
    if b == 0 or n == 0:
        return np.full((b, n), unreached, dtype=dtype)
    words = (b + 63) >> 6
    #: arrival[j, r]: source row r's offset at node j — node-major, so a
    #: date stamps whole rows, and padded to the unpacked bit width.
    arrival = np.full((n, words << 6), unreached, dtype=dtype)
    start = plan.start_time
    horizon = plan.horizon
    max_wait = plan.max_wait
    # A wait bound no processed departure date can exhaust is unbounded
    # waiting in disguise (latest is pinned at the horizon either way).
    wait_like = max_wait is None or start + max_wait + 1 >= horizon

    # The lowering — flattened, sorted, grouped contacts plus the date
    # axis — cached on the plan object, or just the block's closure.
    lowered = _bitset_lowering(plan, sources)
    src_s, group_offset, group_tgt = lowered.src_s, lowered.group_offset, lowered.group_tgt
    date_lo, date_hi = lowered.date_lo.tolist(), lowered.date_hi.tolist()
    run_lo, run_hi = lowered.run_lo.tolist(), lowered.run_hi.tolist()
    run_ptr, run_arr = lowered.run_ptr.tolist(), lowered.run_arr.tolist()

    #: bit i of node_mask[j] — source i's earliest arrival at j is stamped.
    node_mask = np.zeros((n, words), dtype=np.uint64)

    # Seed: one bucket at the start date carrying every source's own bit
    # (duplicate source nodes simply stack their bits in one row).
    source_idx = np.asarray(sources, dtype=np.int64)
    seed = np.zeros((n, words), dtype=np.uint64)
    rows = np.arange(b, dtype=np.uint64)
    np.bitwise_or.at(
        seed,
        (source_idx, (rows >> np.uint64(6)).astype(np.int64)),
        np.uint64(1) << (rows & np.uint64(63)),
    )
    # The bits still to stamp: every row's at each contact target, plus
    # each row's own bit at a source node no contact reaches.
    targets = np.zeros(n, dtype=bool)
    targets[group_tgt] = True
    unstamped = b * int(np.count_nonzero(targets)) + int(
        np.count_nonzero(~targets[source_idx])
    )
    buckets: dict[int, np.ndarray] = {start: seed}
    #: bounded-wait recency window: the (date, bucket) pairs with
    #: ``date in [t - max_wait, t]``, oldest first.
    retained: deque[tuple[int, np.ndarray]] = deque()

    for di, t in enumerate(lowered.dates.tolist()):
        bucket = buckets.pop(t, None)
        if bucket is not None:
            new = bucket & ~node_mask
            hit = new.any(axis=1).nonzero()[0]
            if hit.size:
                node_mask |= new
                # Newly-set bits, little-endian throughout, so unpacked
                # column s is exactly source row s of the block.  Each
                # (node, source) bit is new exactly once, so taking
                # ``unreached - offset`` off where it is set leaves the
                # offset.
                bits = np.unpackbits(
                    new.take(hit, axis=0).astype("<u8", copy=False).view(np.uint8),
                    axis=1,
                    bitorder="little",
                )
                step = dtype.type(unreached - (t - start))
                arrival[hit] = arrival.take(hit, axis=0) - bits * step
                unstamped -= int(np.count_nonzero(bits))
                if not unstamped:
                    break
        if t >= horizon:
            continue
        lo = date_lo[di]
        hi = date_hi[di]
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
            eligible = node_mask.take(srcs, axis=0)
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
        # or-reduce over the pre-sorted groups, then OR each run into
        # its arrival date's bucket (empty groups OR nothing).
        r_lo, r_hi = run_lo[di], run_hi[di]
        g_lo = run_ptr[r_lo]
        merged = np.bitwise_or.reduceat(
            eligible, group_offset[g_lo : run_ptr[r_hi]], axis=0
        )
        for r in range(r_lo, r_hi):
            a, z = run_ptr[r], run_ptr[r + 1]
            targets, pushed = group_tgt[a:z], merged[a - g_lo : z - g_lo]
            bucket_d = buckets.get(run_arr[r])
            # A run's targets are distinct, so a fresh bucket can take
            # its rows by assignment.
            if bucket_d is None:
                buckets[run_arr[r]] = bucket_d = np.zeros((n, words), dtype=np.uint64)
                bucket_d[targets] = pushed
            else:
                bucket_d[targets] |= pushed
    return np.ascontiguousarray(arrival[:, :b].T)


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
