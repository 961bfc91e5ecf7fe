"""Property suite for the sharded arrival sweep.

The sharding claim is exact, not approximate: for ANY graph (every
structured presence form plus black-box predicates routed through the
LazyContactCache), any waiting semantics, any start date, and any block
count, lowering the sweep to a :class:`~repro.core.parallel.SweepPlan`,
sweeping each source block independently, and stacking the sub-matrices
equals the serial sweep element for element.  Hypothesis drives the
block sweeps in-process (same code the workers run, minus the fork) so
hundreds of examples stay cheap; ``tests/core/test_parallel.py`` adds
the end-to-end multi-process runs under the ``slow`` marker.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.engine import TemporalEngine
from repro.core.latency import constant_latency
from repro.core.parallel import build_sweep_plan, partition_sources, sweep_block
from repro.core.presence import (
    function_presence,
    interval_presence,
    periodic_presence,
)
from repro.core.semantics import NO_WAIT, WAIT, bounded_wait
from repro.core.time_domain import Lifetime
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


class TestShardedEqualsSerial:
    @given(tvgs(), semantics_strategy, st.integers(0, 3), st.integers(2, 4))
    @settings(DETERMINISTIC, max_examples=60)
    def test_stacked_block_sweeps_equal_serial(
        self, graph, semantics, start, shards
    ):
        engine = TemporalEngine(graph)
        _nodes, serial = engine.arrival_matrix(start, semantics, horizon=HORIZON)
        _same, plan = build_sweep_plan(engine, start, semantics, HORIZON)
        blocks = partition_sources(plan.n, shards)
        stacked = np.vstack([sweep_block(plan, block) for block in blocks])
        assert np.array_equal(stacked, serial)

    @given(tvgs(), semantics_strategy, st.integers(2, 4))
    @settings(DETERMINISTIC, max_examples=30)
    def test_fresh_engine_per_path_still_agrees(self, graph, semantics, shards):
        """Same equality with NO shared engine state between the two
        paths — each lowers its own index and black-box cache."""
        _nodes, serial = TemporalEngine(graph).arrival_matrix(
            0, semantics, horizon=HORIZON
        )
        _same, plan = build_sweep_plan(
            TemporalEngine(graph), 0, semantics, HORIZON
        )
        stacked = np.vstack(
            [sweep_block(plan, b) for b in partition_sources(plan.n, shards)]
        )
        assert np.array_equal(stacked, serial)

    @given(tvgs(), semantics_strategy)
    @settings(DETERMINISTIC, max_examples=30)
    def test_masks_match_the_matrix(self, graph, semantics):
        """The vectorized mask packing agrees with the boolean matrix
        (bit i of packed column j == matrix[i, j]) on arbitrary graphs."""
        engine = TemporalEngine(graph)
        nodes, matrix = engine.reachability_matrix(0, semantics, horizon=HORIZON)
        _same, packed = engine.reachability_packed(0, semantics, horizon=HORIZON)
        for j in range(len(nodes)):
            assert int.from_bytes(packed[:, j].tobytes(), "little") == sum(
                1 << i for i in range(len(nodes)) if matrix[i, j]
            )
