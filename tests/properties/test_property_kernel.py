"""Property suite for the sweep kernel (N-version checking).

The bignum sweep is the ground-truth oracle: the per-state heap sweep
is a direct transcription of the semantics.  The bitset kernel
(``sweep_block``) is the production path: one contact scan over packed
uint64 frontiers.  They must agree *bit for bit* — on arbitrary graphs (every structured presence
form plus black-box predicates), all three waiting semantics, any start
date, any source block (including duplicated and out-of-order sources)
— and both must agree with the interpretive journey search in
:mod:`repro.core.traversal`, which shares no code with either kernel.
The bitset kernel answers in compact offsets from the start date, so
its output is compared after ``offsets_to_dates`` (``swept_dates``),
on windows and latencies whose offsets need uint8, uint16 and uint64.

A block's sweep on a plan not yet lowered lowers only the contacts its
closure can reach, so the block tests also draw graphs of 2-4
communities, disjoint or bridged, with chains of at least three hops,
black-box presences and callable latencies, and sweep each block both
on a fresh plan and on one lowered in full.

The handcrafted cases pin the regimes Hypothesis rarely reaches:
UNREACHED-magnitude dates (the kernels must not overflow int64 when
sorting or bucketing near ``2**63``), empty and single-node graphs, and
the bounded-wait collapse (a bound no departure can exhaust must equal
unbounded waiting exactly).
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings, strategies as st
from plan_helpers import make_plan, swept_dates

from repro.core.engine import TemporalEngine
from repro.core.latency import constant_latency, function_latency
from repro.core.parallel import SweepPlan, build_sweep_plan, partition_sources
from repro.core.presence import (
    always,
    function_presence,
    interval_presence,
    periodic_presence,
)
from repro.core.semantics import NO_WAIT, WAIT, bounded_wait
from repro.core.sweep_kernel import (
    UNREACHED,
    _bitset_lowering,
    offset_dtype,
    sweep_block,
    sweep_block_bignum,
)
from repro.core.time_domain import Lifetime
from repro.core.traversal import earliest_arrivals
from repro.core.tvg import TimeVaryingGraph

HORIZON = 12
#: A window wide enough that offsets pass 254, so plans need uint16.
WIDE_HORIZON = 300

DETERMINISTIC = settings(deadline=None, derandomize=True, print_blob=True)

semantics_strategy = st.one_of(
    st.just(NO_WAIT),
    st.just(WAIT),
    st.integers(0, 3).map(bounded_wait),
)


@st.composite
def presences(draw):
    kind = draw(st.integers(0, 3))
    if kind == 0:
        period = draw(st.integers(2, 5))
        pattern = draw(
            st.sets(st.integers(0, period - 1), min_size=1, max_size=period)
        )
        return periodic_presence(pattern, period)
    if kind == 1:
        pairs = draw(
            st.lists(
                st.tuples(st.integers(0, HORIZON - 1), st.integers(1, 4)),
                min_size=1,
                max_size=3,
            )
        )
        return interval_presence([(a, a + w) for a, w in pairs])
    if kind == 2:
        period = draw(st.integers(2, 4))
        shift = draw(st.integers(-2, 3))
        return periodic_presence([0], period).shifted(shift)
    # Black-box: an opaque callable routed through the LazyContactCache.
    period = draw(st.integers(2, 5))
    residue = draw(st.integers(0, period - 1))
    return function_presence(lambda t, p=period, r=residue: t % p == r, "blackbox")


@st.composite
def tvgs(draw, horizon=HORIZON, latencies=st.integers(1, 3)):
    n = draw(st.integers(2, 6))
    graph = TimeVaryingGraph(lifetime=Lifetime(0, horizon), name="random")
    graph.add_nodes(range(n))
    edge_count = draw(st.integers(1, 9))
    for _ in range(edge_count):
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 1))
        if u == v:
            continue
        graph.add_edge(
            u,
            v,
            presence=draw(presences()),
            latency=constant_latency(draw(latencies)),
        )
    return graph


@st.composite
def community_tvgs(draw):
    """2-4 communities of 4-5 nodes, each a chain through all its nodes
    (3-4 hops, often always present) plus random inner edges, joined by
    0-2 bridge edges; latencies constant or callable."""
    count, size = draw(st.integers(2, 4)), draw(st.integers(4, 5))
    graph = TimeVaryingGraph(lifetime=Lifetime(0, HORIZON), name="communities")
    graph.add_nodes(range(count * size))

    def edge(u, v, presence):
        if draw(st.booleans()):
            latency = constant_latency(draw(st.integers(1, 2)))
        else:
            step = draw(st.integers(2, 3))
            latency = function_latency(lambda t, s=step: 1 + t % s, "varying")
        graph.add_edge(u, v, presence=presence, latency=latency)

    def pair(lo, hi):
        return draw(st.lists(st.integers(lo, hi), min_size=2, max_size=2, unique=True))

    for base in range(0, count * size, size):
        for u in range(base, base + size - 1):
            edge(u, u + 1, draw(st.one_of(st.just(always()), presences())))
        for _ in range(draw(st.integers(0, 3))):
            u, v = pair(base, base + size - 1)
            edge(u, v, draw(presences()))
    for _ in range(draw(st.integers(0, 2))):
        u, v = pair(0, count - 1)
        edge(u * size + draw(st.integers(0, size - 1)), v * size, draw(presences()))
    return graph


def assert_blocks_agree(plan, blocks):
    """Each block swept on a fresh copy of ``plan`` (which lowers only
    the block's closure) and on a copy lowered in full equals the
    bignum oracle; returns the blocks stacked."""
    lowered = replace(plan)
    _bitset_lowering(lowered)
    swept = []
    for block in blocks:
        oracle = sweep_block_bignum(plan, block)
        assert np.array_equal(swept_dates(replace(plan), block), oracle)
        assert np.array_equal(swept_dates(lowered, block), oracle)
        swept.append(oracle)
    return np.vstack(swept)


@st.composite
def wide_tvgs(draw):
    """Graphs over ``[0, WIDE_HORIZON)`` with short and long latencies,
    plus one always-present edge out of node 0 whose latency alone puts
    an arrival offset past 254: every plan's offsets need uint16."""
    graph = draw(
        tvgs(WIDE_HORIZON, st.one_of(st.integers(1, 3), st.integers(200, 400)))
    )
    graph.add_edge(
        0, 1, presence=always(), latency=constant_latency(draw(st.integers(255, 400)))
    )
    return graph


class TestBitsetEqualsBignum:
    @given(tvgs(), semantics_strategy, st.integers(0, 3))
    @settings(DETERMINISTIC, max_examples=80)
    def test_full_sweep_agrees(self, graph, semantics, start):
        _nodes, plan = build_sweep_plan(
            TemporalEngine(graph), start, semantics, HORIZON
        )
        sources = tuple(range(plan.n))
        assert np.array_equal(
            swept_dates(plan, sources), sweep_block_bignum(plan, sources)
        )

    @given(st.one_of(tvgs(), community_tvgs()), semantics_strategy, st.integers(2, 4))
    @settings(DETERMINISTIC, max_examples=80)
    def test_block_partitions_agree(self, graph, semantics, shards):
        """Stacked per-block bitset sweeps equal the serial bignum sweep
        — the exactness the sharded and cluster paths inherit."""
        _nodes, plan = build_sweep_plan(TemporalEngine(graph), 0, semantics, HORIZON)
        serial = sweep_block_bignum(plan, tuple(range(plan.n)))
        stacked = assert_blocks_agree(plan, partition_sources(plan.n, shards))
        assert np.array_equal(stacked, serial)

    @given(st.one_of(tvgs(), community_tvgs()), semantics_strategy, st.data())
    @settings(DETERMINISTIC, max_examples=80)
    def test_arbitrary_source_blocks_agree(self, graph, semantics, data):
        """Duplicated and out-of-order source rows: row ``i`` of the
        output answers ``sources[i]`` under both kernels."""
        _nodes, plan = build_sweep_plan(TemporalEngine(graph), 0, semantics, HORIZON)
        sources = tuple(
            data.draw(
                st.lists(
                    st.integers(0, plan.n - 1), min_size=1, max_size=2 * plan.n
                )
            )
        )
        assert_blocks_agree(plan, [sources])


class TestWideOffsets:
    """Windows and latencies whose offsets need more than one byte."""

    @given(wide_tvgs(), semantics_strategy, st.integers(0, 3))
    @settings(DETERMINISTIC, max_examples=30)
    def test_uint16_offsets_match_both_oracles(self, graph, semantics, start):
        engine = TemporalEngine(graph)
        nodes, plan = build_sweep_plan(engine, start, semantics, WIDE_HORIZON)
        offsets = sweep_block(plan, range(plan.n))
        assert offsets.dtype == offset_dtype(plan) == np.uint16
        dates = swept_dates(plan, range(plan.n))
        assert np.array_equal(dates, sweep_block_bignum(plan, range(plan.n)))
        for i, source in enumerate(nodes):
            oracle = earliest_arrivals(graph, source, start, semantics, WIDE_HORIZON)
            assert dates[i].tolist() == [oracle.get(node, UNREACHED) for node in nodes]

    @given(wide_tvgs(), semantics_strategy, st.integers(2, 4))
    @settings(DETERMINISTIC, max_examples=20)
    def test_uint16_blocks_stack(self, graph, semantics, shards):
        _nodes, plan = build_sweep_plan(TemporalEngine(graph), 0, semantics, WIDE_HORIZON)
        stacked = np.vstack(
            [sweep_block(plan, block) for block in partition_sources(plan.n, shards)]
        )
        assert np.array_equal(stacked, sweep_block(plan, range(plan.n)))

    def test_a_closure_answers_in_the_plan_dtype(self):
        """A block whose closure arrives within 254 dates still answers
        in uint16 when an edge outside the closure (latency 300) makes
        the plan uint16."""
        graph = TimeVaryingGraph(lifetime=Lifetime(0, HORIZON), name="two parts")
        graph.add_nodes(range(5))
        graph.add_edge(0, 1, presence=always())
        graph.add_edge(1, 2, presence=periodic_presence([1], 2))
        graph.add_edge(3, 4, presence=always(), latency=constant_latency(300))
        for semantics in (NO_WAIT, WAIT, bounded_wait(1)):
            engine = TemporalEngine(graph)
            _nodes, plan = build_sweep_plan(engine, 0, semantics, HORIZON)
            offsets = sweep_block(plan, (0, 1))
            assert "_lowering" not in plan.__dict__  # the closure was lowered alone
            assert offsets.dtype == offset_dtype(plan) == np.uint16
            assert np.array_equal(
                swept_dates(plan, (0, 1)), sweep_block_bignum(plan, (0, 1))
            )
            assert offsets[0, 2] < 255

    def test_each_dtype_bound(self):
        """A largest offset just under a dtype's max keeps that dtype;
        one equal to it (the sentinel) takes the next, up to uint64 (a
        2**61 latency).  The offsets read back exactly."""
        for largest, dtype in (
            (254, np.uint8), (255, np.uint16), (2**16 - 2, np.uint16),
            (2**16 - 1, np.uint32), (2**32 - 2, np.uint32),
            (2**32 - 1, np.uint64), (2**61 + 5, np.uint64),
        ):
            for max_wait in (None, 0, 2):
                plan = _plan_for_dates(0, max_wait, largest - 5)
                offsets = sweep_block(plan, range(plan.n))
                assert offsets.dtype == offset_dtype(plan) == dtype, largest
                assert np.array_equal(
                    swept_dates(plan, range(plan.n)),
                    sweep_block_bignum(plan, range(plan.n)),
                )


class TestKernelsMatchInterpretiveOracle:
    @given(tvgs(), semantics_strategy, st.integers(0, 3))
    @settings(DETERMINISTIC, max_examples=40)
    def test_both_kernels_match_journey_search(self, graph, semantics, start):
        """Three-version agreement: the engine's matrix equals the
        oracle's, and each row equals the interpretive temporal-state
        search, which shares no code with either kernel."""
        engine = TemporalEngine(graph)
        nodes, bitset = engine.arrival_matrix(start, semantics, horizon=HORIZON)
        _same, plan = build_sweep_plan(engine, start, semantics, HORIZON)
        assert np.array_equal(bitset, sweep_block_bignum(plan, range(plan.n)))
        for i, source in enumerate(nodes):
            oracle = earliest_arrivals(graph, source, start, semantics, HORIZON)
            expected = [oracle.get(node, UNREACHED) for node in nodes]
            assert bitset[i].tolist() == expected


def _plan_for_dates(
    base: int, max_wait: int | None = None, last_latency: int = 1
) -> SweepPlan:
    """A 4-node line+shortcut plan with every date near ``base`` — built
    directly so the magnitude (e.g. near ``UNREACHED``) exercises only
    the kernels, not the graph layer.  The last hop takes
    ``last_latency``, so its arrival offset is ``5 + last_latency``."""
    return make_plan(
        n=4,
        out_edges=((0, 1), (2,), (3,), ()),
        target_idx=(1, 2, 2, 3),
        contacts=(
            (base, base + 1),
            (base + 3,),
            (base + 1, base + 4),
            (base + 5,),
        ),
        arrivals=(
            (base + 1, base + 2),
            (base + 4,),
            (base + 3, base + 5),
            (base + 5 + last_latency,),
        ),
        start_time=base,
        horizon=base + 8,
        max_wait=max_wait,
    )


class TestHandcraftedRegimes:
    def test_unreached_magnitude_dates(self):
        """Dates within a few steps of ``UNREACHED`` (int64 max): both
        kernels must sort, bucket, and compare without overflowing."""
        base = int(UNREACHED) - 16
        for max_wait in (None, 0, 1, 3):
            plan = _plan_for_dates(base, max_wait)
            sources = (0, 1, 2, 3)
            bitset = swept_dates(plan, sources)
            bignum = sweep_block_bignum(plan, sources)
            assert np.array_equal(bitset, bignum), f"max_wait={max_wait}"
            assert bitset[0, 0] == base  # the trivial journey survives
            assert bitset.max() <= np.iinfo(np.int64).max

    def test_empty_graph(self):
        graph = TimeVaryingGraph(lifetime=Lifetime(0, HORIZON), name="empty")
        engine = TemporalEngine(graph)
        nodes, matrix = engine.arrival_matrix(0, WAIT, horizon=HORIZON)
        assert nodes == [] and matrix.shape == (0, 0)
        _same, plan = build_sweep_plan(engine, 0, WAIT, HORIZON)
        assert sweep_block_bignum(plan, range(plan.n)).shape == (0, 0)

    def test_single_node_graph(self):
        graph = TimeVaryingGraph(lifetime=Lifetime(0, HORIZON), name="one")
        graph.add_nodes(["a"])
        engine = TemporalEngine(graph)
        _nodes, matrix = engine.arrival_matrix(3, WAIT, horizon=HORIZON)
        assert matrix.tolist() == [[3]]
        _same, plan = build_sweep_plan(engine, 3, WAIT, HORIZON)
        assert sweep_block_bignum(plan, range(plan.n)).tolist() == [[3]]

    def test_a_long_path_is_exact_and_expands_each_node_once(self, monkeypatch):
        """A 2,000-node directed path, edge ``i`` present at date ``i``
        only: a block's closure is the rest of the path, found one
        frontier at a time with every node expanded once, and the
        answers equal the oracle's."""
        from repro.core import sweep_kernel

        n = 2000
        plan = make_plan(
            n=n,
            out_edges=[[i] for i in range(n - 1)] + [[]],
            target_idx=range(1, n),
            contacts=[[i] for i in range(n - 1)],
            arrivals=[[i + 1] for i in range(n - 1)],
            start_time=0,
            horizon=n,
            max_wait=None,
        )
        expanded = []
        real = sweep_kernel._csr_rows

        def counted(ptr, rows):
            if ptr is plan.out_ptr:
                expanded.extend(rows.tolist())
            return real(ptr, rows)

        monkeypatch.setattr(sweep_kernel, "_csr_rows", counted)
        for block in ((1000,), (5, 1500), (1998, 1999)):
            fresh = replace(plan)
            dates = swept_dates(fresh, block)
            assert sorted(expanded) == list(range(min(block), n))
            assert "_lowering" not in fresh.__dict__
            assert np.array_equal(dates, sweep_block_bignum(plan, block))
            assert dates[0, -1] == n - 1
            expanded.clear()

    def test_empty_source_block(self):
        plan = _plan_for_dates(0)
        for fn in (sweep_block, sweep_block_bignum):
            assert fn(plan, ()).shape == (0, 4)

    @given(tvgs(), st.integers(0, 3))
    @settings(DETERMINISTIC, max_examples=30)
    def test_unexhaustible_bound_collapses_to_wait(self, graph, start):
        """A waiting bound no in-window departure can exhaust must equal
        unbounded waiting exactly (the kernel's ``wait_like`` collapse)."""
        engine = TemporalEngine(graph)
        _n1, bounded = engine.arrival_matrix(
            start, bounded_wait(HORIZON), horizon=HORIZON
        )
        _n2, unbounded = engine.arrival_matrix(start, WAIT, horizon=HORIZON)
        assert np.array_equal(bounded, unbounded)
