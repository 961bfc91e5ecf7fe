"""Unit tests for the sweep kernel module itself.

The property suite (``tests/properties/test_property_kernel.py``) proves
the kernel equal to the bignum oracle; this file pins the *mechanics*:
:class:`SweepStats` accounting, the kernel's one-bucket-per-date axis,
and the oracle's heap hygiene — dedup seeding and dead-pop skipping on
a merge-heavy graph, the churn the old in-engine sweep paid for on
every duplicated frontier entry.
"""

import numpy as np

from repro.core.engine import TemporalEngine
from repro.core.latency import constant_latency
from repro.core.parallel import build_sweep_plan
from repro.core.presence import interval_presence
from repro.core.semantics import WAIT, bounded_wait
from repro.core.sweep_kernel import (
    SweepStats,
    _bitset_lowering,
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


class TestEngineKernelThreading:
    def test_reachability_packed_matches_masks(self):
        """The packed uint8 matrix is the primary form: column ``j``'s
        bytes, read little-endian, are the bit mask of the sources that
        reach node ``j``."""
        engine = TemporalEngine(merge_heavy_graph(6))
        nodes, packed = engine.reachability_packed(0, WAIT, horizon=HORIZON)
        _also, matrix = engine.reachability_matrix(0, WAIT, horizon=HORIZON)
        n = len(nodes)
        assert packed.shape == ((n + 7) // 8, n)
        assert packed.dtype == np.uint8
        unpacked = np.unpackbits(packed, axis=0, count=n, bitorder="little")
        assert np.array_equal(unpacked.astype(bool), matrix)
        for j in range(n):
            mask = sum(1 << i for i in range(n) if matrix[i, j])
            assert int.from_bytes(packed[:, j].tobytes(), "little") == mask
