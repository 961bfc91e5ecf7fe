"""The kernel's radix lowering against the ``lexsort`` reference.

:func:`~repro.core.sweep_kernel._bitset_lowering` orders a plan's
contacts by LSD radix passes over 16-bit digits and reads its date axis
off the sorted columns.  It must equal ``reference_lowering`` (one
three-key ``lexsort`` plus an ``np.unique`` date axis, in
``tests/lowering_helpers``) field for field, including on plans whose
offsets need more than one 16-bit digit — latencies near 2**62, dates
near either int64 bound, more than 2**16 nodes — and it must never
allocate by the date span.  Lowered for a source block, a plan lowers
only its block's closure, which must equal the reference lowering of
the plan cut to that closure (``closure_cut``).
"""

import tracemalloc
from dataclasses import replace

import numpy as np
from hypothesis import given, settings, strategies as st
from lowering_helpers import reference_lowering
from plan_helpers import closure_cut, make_plan, swept_dates

from repro.core.sweep_kernel import _bitset_lowering, sweep_block_bignum

BOUND = 2**62


def assert_lowers_like_reference(plan, sources=None):
    """The plan's lowering (for ``sources``: on a fresh copy, its
    block's closure) equals the reference lowering of the same cut."""
    if sources is None:
        lowered, reference = _bitset_lowering(plan), reference_lowering(plan)
    else:
        lowered = _bitset_lowering(replace(plan), sources)
        reference = reference_lowering(closure_cut(plan, sources))
    for name, got, want in zip(lowered._fields, lowered, reference):
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name


def chain_plan(start: int, latency: int, n: int = 4, max_wait=None):
    """A ring of ``n`` nodes, edge ``i`` departing at ``start + i`` and
    ``start + n + i``, plus a chord whose departures tie with edge 0's."""
    out_edges = [[i] for i in range(n)]
    out_edges[0].append(n)
    contacts = [[start + i, start + n + i] for i in range(n)] + [[start, start + n]]
    return make_plan(
        n=n,
        out_edges=out_edges,
        target_idx=[(i + 1) % n for i in range(n)] + [n // 2],
        contacts=contacts,
        arrivals=[[d + latency for d in row] for row in contacts],
        start_time=start,
        horizon=start + 2 * n + 1,
        max_wait=max_wait,
    )


class TestWideKeys:
    def test_latency_near_the_wire_bound(self):
        for latency in (BOUND - 2**40, BOUND - 1 - 9, 2**16, 2**16 + 1, 2**33):
            plan = chain_plan(0, latency)
            assert_lowers_like_reference(plan)
            sources = range(plan.n)
            assert np.array_equal(
                swept_dates(plan, sources), sweep_block_bignum(plan, sources)
            )

    def test_dates_near_both_bounds(self):
        for start, latency in (
            (-BOUND + 1, 1),
            (-BOUND + 1, BOUND - 2),  # arrivals span most of int64
            (BOUND - 40, 3),
            (-(2**40), 2**41),
        ):
            for max_wait in (None, 0, 2):
                plan = chain_plan(start, latency, max_wait=max_wait)
                assert_lowers_like_reference(plan)
                assert np.array_equal(
                    swept_dates(plan, range(plan.n)),
                    sweep_block_bignum(plan, range(plan.n)),
                )

    def test_more_than_two_to_the_sixteen_nodes(self):
        n = 2**16 + 37
        rng = np.random.default_rng(5)
        sources = rng.integers(0, n, 400)
        targets = rng.integers(0, n, 400)
        out_edges = [[] for _ in range(n)]
        for edge, source in enumerate(sources.tolist()):
            out_edges[source].append(edge)
        contacts = [sorted(set(rng.integers(0, 6, 3).tolist())) for _ in range(400)]
        plan = make_plan(
            n=n,
            out_edges=out_edges,
            target_idx=targets,
            contacts=contacts,
            arrivals=[[d + 1 for d in row] for row in contacts],
            start_time=0,
            horizon=8,
            max_wait=None,
        )
        assert_lowers_like_reference(plan)
        block = sorted(set(sources.tolist()))[:40]
        assert np.array_equal(swept_dates(plan, block), sweep_block_bignum(plan, block))

    def test_nothing_is_sized_by_the_date_span(self):
        plan = make_plan(
            n=2,
            out_edges=[[0], [1]],
            target_idx=[1, 0],
            contacts=[[0], [1]],
            arrivals=[[2**61], [2**61 + 1]],
            start_time=0,
            horizon=2,
            max_wait=None,
        )
        tracemalloc.start()
        try:
            lowered = _bitset_lowering(plan)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert lowered.dates.tolist() == [0, 1, 2**61, 2**61 + 1]

    def test_empty_plan(self):
        plan = make_plan(
            n=3, out_edges=[[], [], []], target_idx=[], contacts=[], arrivals=[],
            start_time=5, horizon=9, max_wait=None,
        )
        assert_lowers_like_reference(plan)


@st.composite
def plans(draw):
    n = draw(st.integers(1, 6))
    edge_count = draw(st.integers(0, 8))
    out_edges = [[] for _ in range(n)]
    for edge in range(edge_count):
        out_edges[draw(st.integers(0, n - 1))].append(edge)
    start = draw(st.sampled_from([0, -BOUND + 1, BOUND - 64, -(2**20)]))
    scale = draw(st.sampled_from([1, 1, 2**15, 2**17, 2**40]))
    contacts, arrivals = [], []
    for _ in range(edge_count):
        deps = sorted(draw(st.sets(st.integers(0, 30), max_size=5)))
        contacts.append([start + d for d in deps])
        latency = draw(st.integers(1, 4)) * scale
        latency = min(latency, BOUND - 1 - (start + 30))
        arrivals.append([start + d + max(1, latency) for d in deps])
    return make_plan(
        n=n,
        out_edges=out_edges,
        target_idx=[draw(st.integers(0, n - 1)) for _ in range(edge_count)],
        contacts=contacts,
        arrivals=arrivals,
        start_time=start,
        horizon=start + 31,
        max_wait=draw(st.sampled_from([None, 0, 3])),
    )


@settings(deadline=None, derandomize=True, print_blob=True, max_examples=300)
@given(plan=plans(), data=st.data())
def test_radix_lowering_equals_lexsort(plan, data):
    assert_lowers_like_reference(plan)
    sources = data.draw(st.lists(st.integers(0, plan.n - 1), min_size=1, max_size=3))
    assert_lowers_like_reference(plan, sources)
