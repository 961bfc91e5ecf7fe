"""Unit tests for the sweep kernel module itself.

The property suite (``tests/properties/test_property_kernel.py``) proves
the kernel equal to the bignum oracle; this file pins the *mechanics*:
:class:`SweepStats` accounting, the kernel's one-bucket-per-date axis,
the lowering cached on the plan (a block's own closure lowered alone
and never cached), and the oracle's heap hygiene — dedup
seeding and dead-pop skipping on a merge-heavy graph, the churn the old
in-engine sweep paid for on every duplicated frontier entry.
"""

import gc
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.core import sweep_kernel
from repro.core.builders import TVGBuilder
from repro.core.engine import TemporalEngine
from repro.core.latency import constant_latency
from repro.core.parallel import build_sweep_plan
from repro.core.presence import interval_presence
from repro.core.semantics import NO_WAIT, WAIT, bounded_wait
from repro.core.sweep_kernel import (
    SweepStats,
    _bitset_lowering,
    offsets_to_dates,
    sweep_block,
    sweep_block_bignum,
)
from repro.core.time_domain import Lifetime
from repro.core.tvg import TimeVaryingGraph

HORIZON = 16


def merge_heavy_graph(n: int = 8) -> TimeVaryingGraph:
    """A complete digraph whose edges are all present on ``[0, 4)``:
    every frontier merge re-discovers every node many times over, so a
    naive heap sweep pops far more entries than it has live states."""
    graph = TimeVaryingGraph(lifetime=Lifetime(0, HORIZON), name="merge-heavy")
    graph.add_nodes(range(n))
    for u in range(n):
        for v in range(n):
            if u != v:
                graph.add_edge(
                    u, v,
                    presence=interval_presence([(0, 4)]),
                    latency=constant_latency(1),
                )
    return graph


class TestSweepStats:
    def _plan(self, semantics=WAIT):
        engine = TemporalEngine(merge_heavy_graph())
        return build_sweep_plan(engine, 0, semantics, HORIZON)[1]

    def test_bignum_dedups_duplicate_seed_sources(self):
        """Duplicated sources in a block seed ONE heap entry per
        distinct (node, start) key, so the seed pops stay at ``n``."""
        plan = self._plan()
        sources = tuple(range(plan.n)) * 3
        stats = SweepStats()
        deduped = sweep_block_bignum(plan, sources, stats)
        plain = sweep_block_bignum(plan, tuple(range(plan.n)))
        assert np.array_equal(deduped, np.vstack([plain] * 3))
        baseline = SweepStats()
        sweep_block_bignum(plan, range(plan.n), baseline)
        assert stats.pops == baseline.pops  # no extra heap entries seeded

    def test_bignum_absorbs_merge_churn_without_dead_pops(self):
        """The complete graph floods every (node, date) state with
        re-discoveries.  One heap entry per pending key (merges land in
        the pending mask, never as a second entry) means the flood is
        absorbed as merges — pushes far outnumber pops and no pop ever
        finds its state already consumed."""
        stats = SweepStats()
        plan = self._plan(bounded_wait(2))
        sweep_block_bignum(plan, range(plan.n), stats)
        assert stats.dead_pops == 0
        assert stats.pushes > 3 * stats.pops  # the churn the merges ate

    def test_bitset_has_no_dead_pops_by_construction(self):
        """The contact-scan kernel walks its date axis once, popping one
        bucket per date, so there is nothing stale to pop: the axis is
        strictly increasing and holds exactly every departure, every
        arrival and the seed date."""
        plan = self._plan()
        dates = _bitset_lowering(plan).dates
        assert len(plan.dep) > 0
        assert np.all(np.diff(dates) > 0)
        assert set(dates.tolist()) == (
            set(plan.dep.tolist()) | set(plan.arr.tolist()) | {plan.start_time}
        )

    def test_stats_are_optional(self):
        plan = self._plan()
        for sweep in (sweep_block, sweep_block_bignum):
            assert sweep(plan, range(plan.n)).shape == (plan.n, plan.n)


def count_lowerings(monkeypatch) -> list:
    """Every :class:`_BitsetLowering` built from now on, in order."""
    real = sweep_kernel._BitsetLowering
    lowered = []

    def counted(*fields, **named):
        lowered.append(real(*fields, **named))
        return lowered[-1]

    monkeypatch.setattr(sweep_kernel, "_BitsetLowering", counted)
    return lowered


def two_component_plan():
    """The merge-heavy complete digraph on nodes 0-7 plus a disjoint
    one on nodes 8-11 (its edges on [0, 4) too)."""
    graph = merge_heavy_graph()
    graph.add_nodes(range(8, 12))
    for u in range(8, 12):
        for v in range(8, 12):
            if u != v:
                graph.add_edge(u, v, presence=interval_presence([(0, 4)]))
    return build_sweep_plan(TemporalEngine(graph), 0, WAIT, HORIZON)[1]


class TestLoweringMemo:
    def test_two_sweeps_lower_once_and_the_plan_can_be_collected(
        self, monkeypatch
    ):
        """The lowering is cached on the plan itself: a second sweep
        reuses it, and nothing else keeps the plan alive."""
        lowered = count_lowerings(monkeypatch)
        plan = TestSweepStats()._plan()
        full = sweep_block(plan, range(plan.n))
        assert np.array_equal(sweep_block(plan, (3, 1)), full[[3, 1]])
        assert len(lowered) == 1
        plan_ref = weakref.ref(plan)
        del plan
        gc.collect()
        assert plan_ref() is None

    def test_a_partial_block_caches_nothing_and_a_full_sweep_caches(
        self, monkeypatch
    ):
        """A block inside one component of a fresh plan lowers only that
        component's contacts and stores nothing; a full sweep after it
        lowers the whole plan once, and later sweeps reuse that."""
        lowered = count_lowerings(monkeypatch)
        plan = two_component_plan()
        expected = sweep_block_bignum(plan, range(plan.n))
        swept = sweep_block(plan, (9, 8))
        assert "_lowering" not in plan.__dict__
        assert len(lowered) == 1
        assert sorted(set(lowered[0].src_s.tolist())) == [8, 9, 10, 11]
        full = sweep_block(plan, range(plan.n))
        assert len(lowered) == 2 and len(lowered[1].src_s) == len(plan.dep)
        assert np.array_equal(offsets_to_dates(full, plan.start_time), expected)
        assert np.array_equal(swept, full[[9, 8]])
        block = sweep_block(plan, (1,))
        assert len(lowered) == 2 and np.array_equal(block, full[[1]])

    def test_a_block_whose_closure_is_every_node_caches(self, monkeypatch):
        lowered = count_lowerings(monkeypatch)
        plan = TestSweepStats()._plan()
        block = sweep_block(plan, (2,))
        assert plan.__dict__["_lowering"] is lowered[0]
        full = sweep_block(plan, range(plan.n))
        assert len(lowered) == 1 and np.array_equal(block, full[[2]])

    def test_racing_first_sweeps_of_one_plan_stay_exact(self):
        """Worker threads sweep one cached plan at once: first sweeps
        that race may each lower it, and every answer stays exact."""
        plan = TestSweepStats()._plan()
        expected = sweep_block_bignum(plan, range(plan.n))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as pool:
                results = list(
                    pool.map(
                        lambda _: sweep_block(plan, range(plan.n)),
                        range(16),
                        timeout=60,
                    )
                )
        finally:
            sys.setswitchinterval(interval)
        assert all(
            np.array_equal(offsets_to_dates(result, plan.start_time), expected)
            for result in results
        )


class DateReader:
    """A lowering's date axis that counts how many dates the last sweep
    over it read."""

    def __init__(self, dates: np.ndarray) -> None:
        self.dates = dates
        self.read = 0

    def tolist(self):
        self.read = 0
        for date in self.dates.tolist():
            self.read += 1
            yield date


def reading_dates(monkeypatch) -> list:
    """Every lowering built from now on gets a :class:`DateReader` for
    its date axis; returns them, in order."""
    real = sweep_kernel._BitsetLowering
    readers = []

    def recorded(*fields, **named):
        lowered = real(*fields, **named)
        readers.append(DateReader(lowered.dates))
        return lowered._replace(dates=readers[-1])

    monkeypatch.setattr(sweep_kernel, "_BitsetLowering", recorded)
    return readers


def rings_graph(*sizes: int) -> TimeVaryingGraph:
    """Disjoint directed rings of the given sizes, every edge present
    on the whole lifetime with latency 1: a ring of ``k`` nodes joins
    its last pair at offset ``k - 1``."""
    graph = TimeVaryingGraph(lifetime=Lifetime(0, HORIZON), name="rings")
    base = 0
    for size in sizes:
        graph.add_nodes(range(base, base + size))
        for i in range(size):
            graph.add_edge(
                base + i, base + (i + 1) % size,
                presence=interval_presence([(0, HORIZON)]),
            )
        base += size
    return graph


def last_arrival_read(offsets: np.ndarray, reader: DateReader, start: int) -> int:
    """How many dates a sweep reads if it stops at its last first
    arrival."""
    last = int(offsets[offsets != np.iinfo(offsets.dtype).max].max())
    return int(np.searchsorted(reader.dates, start + last)) + 1


class TestSaturationExit:
    """The scan stops at the date that stamps the last bit the block can
    stamp, and reads every date when some stampable bit stays unset."""

    def test_a_connected_wait_sweep_stops_at_its_last_first_arrival(
        self, monkeypatch
    ):
        readers = reading_dates(monkeypatch)
        plan = build_sweep_plan(TemporalEngine(rings_graph(5)), 0, WAIT, HORIZON)[1]
        offsets = sweep_block(plan, range(plan.n))
        assert int(offsets.max()) == 4
        assert readers[0].read == last_arrival_read(offsets, readers[0], 0) == 5
        assert len(readers[0].dates) == HORIZON + 1
        assert np.array_equal(
            offsets_to_dates(offsets, 0), sweep_block_bignum(plan, range(plan.n))
        )

    def test_a_source_no_contact_reaches_holds_only_its_own_bit(
        self, monkeypatch
    ):
        """Node 5 feeds a 5-ring but no contact reaches it: no other row
        can ever stamp it, so the full sweep still stops, at the date
        node 5's row reaches the far side of the ring."""
        readers = reading_dates(monkeypatch)
        graph = rings_graph(5)
        graph.add_node(5)
        graph.add_edge(5, 0, presence=interval_presence([(0, HORIZON)]))
        plan = build_sweep_plan(TemporalEngine(graph), 0, WAIT, HORIZON)[1]
        offsets = sweep_block(plan, range(plan.n))
        assert int(offsets[5].max()) == 5 and (offsets[:5, 5] == 255).all()
        assert readers[0].read == last_arrival_read(offsets, readers[0], 0) == 6
        assert np.array_equal(
            offsets_to_dates(offsets, 0), sweep_block_bignum(plan, range(plan.n))
        )

    def test_a_closure_cone_counts_only_its_closure(self, monkeypatch):
        """On a fresh plan a block in the 3-ring lowers only that ring
        and stops at offset 2; once a full lowering is cached, the same
        block could reach no other ring's bits, so it reads every date,
        as the full sweep of the two rings does."""
        readers = reading_dates(monkeypatch)
        plan = build_sweep_plan(TemporalEngine(rings_graph(5, 3)), 0, WAIT, HORIZON)[1]
        cone = sweep_block(plan, (6, 5))
        assert int(cone[cone != 255].max()) == 2
        assert readers[0].read == last_arrival_read(cone, readers[0], 0) == 3
        full = sweep_block(plan, range(plan.n))
        assert len(readers) == 2 and readers[1].read == len(readers[1].dates)
        assert np.array_equal(sweep_block(plan, (6, 5)), cone)
        assert readers[1].read == len(readers[1].dates)
        assert np.array_equal(full[[6, 5]], cone)

    def test_a_no_wait_sweep_with_an_unreached_pair_reads_every_date(
        self, monkeypatch
    ):
        readers = reading_dates(monkeypatch)
        graph = (
            TVGBuilder(name="line")
            .lifetime(0, HORIZON)
            .edge("a", "b", present=[(0, 2)], key="ab")
            .edge("b", "c", present=[(5, 7)], key="bc")
            .build()
        )
        plan = build_sweep_plan(TemporalEngine(graph), 0, NO_WAIT, HORIZON)[1]
        offsets = sweep_block(plan, range(plan.n))
        assert (offsets == 255).any()
        assert readers[0].read == len(readers[0].dates) == 6
        assert np.array_equal(
            offsets_to_dates(offsets, 0), sweep_block_bignum(plan, range(plan.n))
        )


class TestEngineKernelThreading:
    def test_reachability_views_match_the_interpretive_path(self):
        """The matrix and ratio derived from the kernel's arrivals equal
        the per-source interpretive searches."""
        from repro.analysis.reachability import reachability_matrix, reachability_ratio

        g = merge_heavy_graph(6)
        engine = TemporalEngine(g)
        _nodes, matrix = reachability_matrix(g, 0, WAIT, HORIZON, engine=engine)
        _same, expected = reachability_matrix(g, 0, WAIT, HORIZON)
        assert matrix.dtype == bool
        assert np.array_equal(matrix, expected)
        assert reachability_ratio(
            g, 0, WAIT, HORIZON, engine=engine
        ) == reachability_ratio(g, 0, WAIT, HORIZON)
