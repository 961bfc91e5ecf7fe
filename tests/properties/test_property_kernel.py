"""Property suite for the sweep kernels (N-version checking).

The bignum kernel is the ground-truth oracle: the per-state heap sweep
is a direct transcription of the semantics.  The bitset kernel is the
fast path: one contact scan over packed uint64 frontiers.  They must
agree *bit for bit* — on arbitrary graphs (every structured presence
form plus black-box predicates), all three waiting semantics, any start
date, any source block (including duplicated and out-of-order sources)
— and both must agree with the interpretive journey search in
:mod:`repro.core.traversal`, which shares no code with either kernel.

The handcrafted cases pin the regimes Hypothesis rarely reaches:
UNREACHED-magnitude dates (the kernels must not overflow int64 when
sorting or bucketing near ``2**63``), empty and single-node graphs, and
the bounded-wait collapse (a bound no departure can exhaust must equal
unbounded waiting exactly).

Run any suite under the other kernel with ``--sweep-kernel`` (see
``tests/conftest.py``) — it pins ``REPRO_SWEEP_KERNEL`` for every sweep
that doesn't pass ``kernel=`` explicitly.
"""

import numpy as np
from hypothesis import given, settings, strategies as st
from plan_helpers import make_plan

from repro.core.engine import TemporalEngine
from repro.core.latency import constant_latency
from repro.core.parallel import SweepPlan, build_sweep_plan, partition_sources
from repro.core.presence import (
    function_presence,
    interval_presence,
    periodic_presence,
)
from repro.core.semantics import NO_WAIT, WAIT, bounded_wait
from repro.core.sweep_kernel import (
    UNREACHED,
    sweep_block,
    sweep_block_bignum,
    sweep_block_bitset,
)
from repro.core.time_domain import Lifetime
from repro.core.traversal import earliest_arrivals
from repro.core.tvg import TimeVaryingGraph

HORIZON = 12

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
def tvgs(draw):
    n = draw(st.integers(2, 6))
    graph = TimeVaryingGraph(lifetime=Lifetime(0, HORIZON), name="random")
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
            latency=constant_latency(draw(st.integers(1, 3))),
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
            sweep_block_bitset(plan, sources), sweep_block_bignum(plan, sources)
        )

    @given(tvgs(), semantics_strategy, st.integers(2, 4))
    @settings(DETERMINISTIC, max_examples=40)
    def test_block_partitions_agree(self, graph, semantics, shards):
        """Stacked per-block bitset sweeps equal the serial bignum sweep
        — the exactness the sharded and cluster paths inherit."""
        _nodes, plan = build_sweep_plan(TemporalEngine(graph), 0, semantics, HORIZON)
        serial = sweep_block_bignum(plan, tuple(range(plan.n)))
        stacked = np.vstack(
            [
                sweep_block_bitset(plan, block)
                for block in partition_sources(plan.n, shards)
            ]
        )
        assert np.array_equal(stacked, serial)

    @given(tvgs(), semantics_strategy, st.data())
    @settings(DETERMINISTIC, max_examples=40)
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
        assert np.array_equal(
            sweep_block_bitset(plan, sources), sweep_block_bignum(plan, sources)
        )


class TestKernelsMatchInterpretiveOracle:
    @given(tvgs(), semantics_strategy, st.integers(0, 3))
    @settings(DETERMINISTIC, max_examples=40)
    def test_both_kernels_match_journey_search(self, graph, semantics, start):
        """Three-version agreement: each kernel's matrix row equals the
        interpretive temporal-state search, which shares no code with
        either kernel."""
        engine = TemporalEngine(graph)
        nodes, bitset = engine.arrival_matrix(
            start, semantics, horizon=HORIZON, kernel="bitset"
        )
        _same, bignum = engine.arrival_matrix(
            start, semantics, horizon=HORIZON, kernel="bignum"
        )
        assert np.array_equal(bitset, bignum)
        for i, source in enumerate(nodes):
            oracle = earliest_arrivals(graph, source, start, semantics, HORIZON)
            expected = [oracle.get(node, UNREACHED) for node in nodes]
            assert bitset[i].tolist() == expected


def _plan_for_dates(base: int, max_wait: int | None = None) -> SweepPlan:
    """A 4-node line+shortcut plan with every date near ``base`` — built
    directly so the magnitude (e.g. near ``UNREACHED``) exercises only
    the kernels, not the graph layer."""
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
            (base + 6,),
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
            bitset = sweep_block_bitset(plan, sources)
            bignum = sweep_block_bignum(plan, sources)
            assert np.array_equal(bitset, bignum), f"max_wait={max_wait}"
            assert bitset[0, 0] == base  # the trivial journey survives
            assert bitset.max() <= np.iinfo(np.int64).max

    def test_empty_graph(self):
        graph = TimeVaryingGraph(lifetime=Lifetime(0, HORIZON), name="empty")
        for kernel in ("bitset", "bignum"):
            nodes, matrix = TemporalEngine(graph).arrival_matrix(
                0, WAIT, horizon=HORIZON, kernel=kernel
            )
            assert nodes == [] and matrix.shape == (0, 0)

    def test_single_node_graph(self):
        graph = TimeVaryingGraph(lifetime=Lifetime(0, HORIZON), name="one")
        graph.add_nodes(["a"])
        for kernel in ("bitset", "bignum"):
            _nodes, matrix = TemporalEngine(graph).arrival_matrix(
                3, WAIT, horizon=HORIZON, kernel=kernel
            )
            assert matrix.tolist() == [[3]]

    def test_empty_source_block(self):
        plan = _plan_for_dates(0)
        for fn in (sweep_block_bitset, sweep_block_bignum):
            assert fn(plan, ()).shape == (0, 4)

    @given(tvgs(), st.integers(0, 3))
    @settings(DETERMINISTIC, max_examples=30)
    def test_unexhaustible_bound_collapses_to_wait(self, graph, start):
        """A waiting bound no in-window departure can exhaust must equal
        unbounded waiting exactly (the kernel's ``wait_like`` collapse)."""
        engine = TemporalEngine(graph)
        _n1, bounded = engine.arrival_matrix(
            start, bounded_wait(HORIZON), horizon=HORIZON, kernel="bitset"
        )
        _n2, unbounded = engine.arrival_matrix(
            start, WAIT, horizon=HORIZON, kernel="bitset"
        )
        assert np.array_equal(bounded, unbounded)


class TestDispatch:
    @given(tvgs(), semantics_strategy)
    @settings(DETERMINISTIC, max_examples=20)
    def test_dispatcher_routes_by_name(self, graph, semantics):
        _nodes, plan = build_sweep_plan(TemporalEngine(graph), 0, semantics, HORIZON)
        sources = tuple(range(plan.n))
        assert np.array_equal(
            sweep_block(plan, sources, kernel="bitset"),
            sweep_block_bitset(plan, sources),
        )
        assert np.array_equal(
            sweep_block(plan, sources, kernel="bignum"),
            sweep_block_bignum(plan, sources),
        )
