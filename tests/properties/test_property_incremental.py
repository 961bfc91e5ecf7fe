"""Differential property suite for incremental arrival-sweep maintenance.

The incremental path — dirty-edge deltas out of the graph, cone of
affected source rows out of the old matrix, re-sweep of just that cone
merged over the cached result — must be *entry-for-entry equal* to a
from-scratch sweep on every schedule, under all three waiting semantics.
The from-scratch reference is the bignum oracle
(:func:`~repro.core.sweep_kernel.sweep_block_bignum`) over a fresh
engine's plan, so the patch path is checked against an independent
kernel.  Two layers attack it:

* a **stateful machine** drives an in-process :class:`TVGService`
  (every miss whose delta chain allows it patches the window's seed,
  whatever its cone) through interleaved mutations — edge add/remove,
  presence swaps over structured *and* black-box schedules, and the
  nasty remove-then-re-add of the same key — and checks every matrix
  entry against a from-scratch sweep on an independently-mirrored
  shadow graph;

* a **direct engine-level property** applies an arbitrary mutation
  batch to a random graph and checks
  :meth:`TemporalEngine.arrival_matrix_incremental` against the
  from-scratch matrix, plus that its cone bound really is conservative
  (rows it skips are bit-identical in the fresh matrix).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    precondition,
    rule,
)

from repro.core.engine import TemporalEngine
from repro.core.latency import constant_latency
from repro.core.parallel import build_sweep_plan
from repro.core.presence import (
    always,
    function_presence,
    interval_presence,
    periodic_presence,
)
from repro.core.semantics import NO_WAIT, WAIT, bounded_wait
from repro.core.sweep_kernel import merge_rows, offsets_to_dates, sweep_block_bignum
from repro.core.time_domain import Lifetime
from repro.core.tvg import TimeVaryingGraph
from repro.service.service import TVGService

NODES = ("a", "b", "c", "d", "e")
HORIZON = 10

DETERMINISTIC = settings(deadline=None, derandomize=True, print_blob=True)

semantics_strategy = st.one_of(
    st.just(NO_WAIT),
    st.just(WAIT),
    st.integers(1, 2).map(bounded_wait),
)

endpoints_strategy = st.permutations(NODES).map(lambda order: tuple(order[:2]))


class _ResiduePredicate:
    """A deterministic black-box schedule (forces the lazy-cache path)."""

    def __init__(self, period: int, residue: int) -> None:
        self.period = period
        self.residue = residue

    def __call__(self, time: int) -> bool:
        return time % self.period == self.residue

    def __repr__(self) -> str:
        return f"_ResiduePredicate(t % {self.period} == {self.residue})"


@st.composite
def presences(draw):
    kind = draw(st.integers(0, 2))
    if kind == 0:
        period = draw(st.integers(2, 5))
        pattern = draw(st.sets(st.integers(0, period - 1), min_size=1, max_size=period))
        return periodic_presence(pattern, period)
    if kind == 1:
        pairs = draw(
            st.lists(
                st.tuples(st.integers(0, HORIZON - 1), st.integers(1, 4)),
                min_size=1,
                max_size=2,
            )
        )
        return interval_presence((a, a + width) for a, width in pairs)
    period = draw(st.integers(2, 4))
    residue = draw(st.integers(0, period - 1))
    return function_presence(_ResiduePredicate(period, residue), "blackbox")


def scratch_matrix(graph, start, semantics):
    """The oracle's from-scratch matrix, through a fresh engine."""
    nodes, plan = build_sweep_plan(TemporalEngine(graph), start, semantics, HORIZON)
    return nodes, sweep_block_bignum(plan, range(plan.n))


class IncrementalDifferentialMachine(RuleBasedStateMachine):
    """Mutate/query schedules against an in-process service.

    Every query's full matrix must equal a from-scratch oracle sweep on
    the shadow graph — through a *fresh* engine each time, so nothing
    of the service's caches can leak into the oracle.
    """

    def __init__(self) -> None:
        super().__init__()
        self.service = TVGService(self._fresh_graph("served"), cache_size=64)
        self.shadow = self._fresh_graph("shadow")
        self.keys: list[str] = []
        self.counter = 0

    @staticmethod
    def _fresh_graph(name: str) -> TimeVaryingGraph:
        graph = TimeVaryingGraph(lifetime=Lifetime(0, HORIZON), name=name)
        graph.add_nodes(NODES)
        return graph

    # -- mutations (mirrored independently onto the shadow) --------------------

    # A 300-date latency widens the window's offsets from uint8 to
    # uint16, so seeds and their patches change dtype mid-schedule.
    @rule(
        endpoints=endpoints_strategy,
        presence=presences(),
        latency=st.sampled_from([1, 2, 3, 300]),
    )
    def add_edge(self, endpoints, presence, latency):
        source, target = endpoints
        key = f"k{self.counter}"
        self.counter += 1
        self.service.add_edge(
            source, target, presence=presence, latency=constant_latency(latency),
            key=key,
        )
        self.shadow.add_edge(
            source, target, presence=presence, latency=constant_latency(latency),
            key=key,
        )
        self.keys.append(key)

    @precondition(lambda self: self.keys)
    @rule(data=st.data())
    def remove_edge(self, data):
        key = self.keys.pop(data.draw(st.integers(0, len(self.keys) - 1), "key index"))
        self.service.remove_edge(key)
        self.shadow.remove_edge(key)

    @precondition(lambda self: self.keys)
    @rule(data=st.data(), presence=presences())
    def set_presence(self, data, presence):
        key = self.keys[data.draw(st.integers(0, len(self.keys) - 1), "key index")]
        self.service.set_presence(key, presence)
        self.shadow.set_presence(key, presence)

    @precondition(lambda self: self.keys)
    @rule(data=st.data(), presence=presences(), latency=st.integers(1, 3))
    def remove_then_readd_same_key(self, data, presence, latency):
        """The delta chain a naive key-based cache trips over: the same
        key comes back with a different schedule (and endpoints)."""
        key = self.keys[data.draw(st.integers(0, len(self.keys) - 1), "key index")]
        endpoints = data.draw(endpoints_strategy, "endpoints")
        source, target = endpoints
        self.service.remove_edge(key)
        self.shadow.remove_edge(key)
        self.service.add_edge(
            source, target, presence=presence, latency=constant_latency(latency),
            key=key,
        )
        self.shadow.add_edge(
            source, target, presence=presence, latency=constant_latency(latency),
            key=key,
        )

    # -- the differential query ------------------------------------------------

    @rule(start=st.integers(0, HORIZON - 1), semantics=semantics_strategy)
    def query_matrix(self, start, semantics):
        index, offsets = self.service._arrival_matrix(start, HORIZON, semantics)
        nodes, scratch = scratch_matrix(self.shadow, start, semantics)
        assert list(index) == nodes
        assert np.array_equal(offsets_to_dates(offsets, start), scratch), (
            f"incremental matrix diverged from scratch at start={start} "
            f"under {semantics}"
        )

    def teardown(self):
        # The machine only proves something if the patch path actually
        # ran; in process, any query after a presence-only mutation
        # must have taken it.  (Schedules with no such pair prove the
        # fallback instead — both outcomes are valid, so no assert on
        # the counter here; test_incremental_path_is_exercised pins it.)
        stats = self.service.stats()
        assert stats["sweeps"]["full"] + stats["sweeps"]["incremental"] >= 0


IncrementalDifferentialMachine.TestCase.settings = settings(
    max_examples=10,
    stateful_step_count=25,
    deadline=None,
    derandomize=True,
    print_blob=True,
)

# The served sweeps run the bitset kernel; the reference is the oracle.
TestIncrementalDifferentialBitset = IncrementalDifferentialMachine.TestCase


# -- direct engine-level properties --------------------------------------------


@st.composite
def graphs(draw):
    n = draw(st.integers(2, 6))
    graph = TimeVaryingGraph(lifetime=Lifetime(0, HORIZON), name="random")
    graph.add_nodes(range(n))
    for i in range(draw(st.integers(1, 8))):
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 1))
        if u == v:
            continue
        graph.add_edge(
            u, v,
            presence=draw(presences()),
            latency=constant_latency(draw(st.integers(1, 3))),
            key=f"e{i}",
        )
    return graph


@st.composite
def mutation_batches(draw):
    """(kind, presence) steps applied to random existing edges."""
    return draw(
        st.lists(
            st.tuples(
                st.sampled_from(["set_presence", "remove", "readd"]),
                presences(),
                st.integers(0, 99),
            ),
            min_size=1,
            max_size=4,
        )
    )


def _apply(graph, batch):
    for kind, presence, pick in batch:
        keys = [e.key for e in graph.edges]
        if not keys:
            return
        key = keys[pick % len(keys)]
        if kind == "set_presence":
            graph.set_presence(key, presence)
        elif kind == "remove":
            graph.remove_edge(key)
        else:
            edge = graph.remove_edge(key)
            graph.add_edge(edge.source, edge.target, presence=presence, key=key)


class TestEngineIncrementalEqualsScratch:
    @given(graph=graphs(), batch=mutation_batches(), semantics=semantics_strategy,
           start=st.integers(0, 3))
    @settings(DETERMINISTIC, max_examples=30)
    def test_patched_equals_scratch(self, graph, batch, semantics, start):
        graph = graph.copy()  # hypothesis reuses drawn graphs across examples
        engine = TemporalEngine(graph)
        v0 = graph.version
        nodes0, m0 = engine.arrival_offsets(start, semantics, horizon=HORIZON)
        _apply(graph, batch)
        deltas = graph.deltas_since(v0)
        result = engine.arrival_matrix_incremental(
            start, (nodes0, m0), deltas, semantics, HORIZON
        )
        nodes_f, scratch = scratch_matrix(graph, start, semantics)
        assert result is not None  # no node was added, chain is complete
        nodes_i, block, rows = result
        merged = merge_rows(m0, rows, block)
        assert nodes_i == nodes_f
        assert np.array_equal(offsets_to_dates(merged, start), scratch)
        assert 0 <= len(rows) <= len(nodes_i)
        # Plain ascending Python ints, and every other row is the seed's.
        assert all(type(row) is int for row in rows) and rows == sorted(set(rows))
        kept = np.setdiff1d(np.arange(len(nodes_i)), rows)
        assert np.array_equal(
            offsets_to_dates(merged[kept], start), offsets_to_dates(m0[kept], start)
        )

    @given(graph=graphs(), batch=mutation_batches(), semantics=semantics_strategy)
    @settings(DETERMINISTIC, max_examples=20)
    def test_skipped_rows_were_truly_unchanged(self, graph, batch, semantics):
        """The cone bound's soundness, separately: every row the
        incremental path did NOT re-sweep is bit-identical in the
        from-scratch matrix — i.e. conservative really means safe."""
        graph = graph.copy()
        engine = TemporalEngine(graph)
        v0 = graph.version
        nodes0, m0 = engine.arrival_offsets(0, semantics, horizon=HORIZON)
        _apply(graph, batch)
        result = engine.arrival_matrix_incremental(
            0, (nodes0, m0), graph.deltas_since(v0), semantics, HORIZON
        )
        assert result is not None
        _nodes, block, rows = result
        merged = merge_rows(m0, rows, block)
        _same, scratch = TemporalEngine(graph).arrival_matrix(
            0, semantics, horizon=HORIZON
        )
        unchanged = np.all(merged == m0, axis=1)
        merged_dates = offsets_to_dates(merged, 0)
        assert np.array_equal(merged_dates[unchanged], scratch[unchanged])

    def test_node_addition_defeats_the_incremental_path(self):
        g = TimeVaryingGraph(lifetime=Lifetime(0, HORIZON))
        g.add_nodes("ab")
        g.add_edge("a", "b", key="ab")
        engine = TemporalEngine(g)
        v0 = g.version
        nodes0, m0 = engine.arrival_offsets(0, WAIT, horizon=HORIZON)
        g.add_edge("b", "z", key="bz")  # z is a NEW node
        assert engine.arrival_matrix_incremental(
            0, (nodes0, m0), g.deltas_since(v0), WAIT, HORIZON
        ) is None


    def test_node_order_is_checked_and_the_index_map_is_accepted(self):
        """A seed keyed by the index's own node map patches like one
        keyed by the node list; a reordered node list is refused."""
        graph = TimeVaryingGraph(lifetime=Lifetime(0, HORIZON))
        graph.add_nodes("abcd")
        for i, (u, v) in enumerate(("ab", "bc", "cd", "da")):
            graph.add_edge(u, v, presence=periodic_presence([i % 2], 2), key=u + v)
        engine = TemporalEngine(graph)
        v0 = graph.version
        nodes0, m0 = engine.arrival_offsets(0, WAIT, horizon=HORIZON)
        node_index = engine.compiled.node_index
        assert list(node_index) == nodes0
        graph.set_presence("bc", periodic_presence([0], 3))
        deltas = graph.deltas_since(v0)
        assert engine.arrival_matrix_incremental(
            0, (nodes0[::-1], m0), deltas, WAIT, HORIZON
        ) is None
        for previous in (nodes0, node_index):
            result = engine.arrival_matrix_incremental(
                0, (previous, m0), deltas, WAIT, HORIZON
            )
            assert result is not None
            nodes, block, rows = result
            merged = merge_rows(m0, rows, block)
            assert nodes == nodes0 and 0 < len(rows) <= len(nodes)
            assert np.array_equal(offsets_to_dates(merged, 0),
                                  scratch_matrix(graph, 0, WAIT)[1])
        assert engine.compiled.node_index is node_index  # patched in place

    @pytest.mark.parametrize("semantics", [WAIT, NO_WAIT, bounded_wait(2)])
    def test_patch_across_offset_dtypes(self, semantics):
        """An edge whose 300-date latency passes 254 makes a uint8
        seed's next plan uint16, and removing it narrows the plan back:
        each patch is recast to its plan's dtype and equals a
        from-scratch sweep."""
        graph = TimeVaryingGraph(lifetime=Lifetime(0, HORIZON))
        graph.add_nodes("abcde")
        for (source, target), residue in ("ab", 0), ("bc", 1), ("cd", 0), ("ea", 1):
            graph.add_edge(
                source, target, presence=periodic_presence([residue], 2),
                key=source + target,
            )
        engine = TemporalEngine(graph)
        nodes, seed = engine.arrival_offsets(0, semantics, horizon=HORIZON)
        assert seed.dtype == np.uint8
        steps = (
            (lambda: graph.add_edge(
                "b", "e", presence=always(), latency=constant_latency(300), key="slow"
            ), np.uint16),
            (lambda: graph.remove_edge("slow"), np.uint8),
        )
        for mutate, dtype in steps:
            version = graph.version
            mutate()
            result = engine.arrival_matrix_incremental(
                0, (nodes, seed), graph.deltas_since(version), semantics, HORIZON
            )
            assert result is not None
            nodes, block, rows = result
            seed = merge_rows(seed, rows, block)
            assert seed.dtype == dtype and 0 < len(rows) < len(nodes)
            _same, scratch = scratch_matrix(graph, 0, semantics)
            assert np.array_equal(offsets_to_dates(seed, 0), scratch)


class TestServiceIncrementalPlumbing:
    def test_incremental_path_is_exercised(self):
        """A presence swap between two identical queries MUST take the
        patch path in process — pins that the machine above is not
        vacuously passing through full sweeps."""
        service = TVGService(IncrementalDifferentialMachine._fresh_graph("pinned"))
        service.add_edge("a", "b", presence=interval_presence([(0, 4)]), key="ab")
        service.arrival("a", "b", 0, HORIZON, WAIT)
        service.set_presence("ab", interval_presence([(2, 6)]))
        service.arrival("a", "b", 0, HORIZON, WAIT)
        stats = service.stats()["sweeps"]
        assert stats["incremental"] == 1, stats
        assert service.stats()["cache"]["retained"] >= 1

    def test_patched_miss_keeps_the_index_node_map(self):
        """A patched miss equals a full sweep, and its seed holds the
        compiled index's own node map instead of a rebuilt one."""
        graph = IncrementalDifferentialMachine._fresh_graph("map")
        service = TVGService(graph)
        service.add_edge("a", "b", presence=interval_presence([(0, 4)]), key="ab")
        service.add_edge("b", "c", presence=periodic_presence([1], 2), key="bc")
        service.growth(0, HORIZON, WAIT)
        query = ("arrival_matrix", 0, HORIZON, str(WAIT))
        node_index = service._seeds[query].node_index
        assert node_index is service.engine.compiled.node_index
        service.set_presence("ab", interval_presence([(2, 6)]))
        service.growth(0, HORIZON, WAIT)
        assert service.stats()["sweeps"]["incremental"] == 1
        seed = service._seeds[query]
        version, seed_index, merged = seed.version, seed.node_index, seed.offsets
        assert version == graph.version and seed_index is node_index
        nodes, scratch = scratch_matrix(graph, 0, WAIT)
        assert list(seed_index) == nodes
        assert np.array_equal(offsets_to_dates(merged, 0), scratch)
