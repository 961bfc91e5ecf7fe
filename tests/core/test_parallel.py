"""Tests for the process-sharded arrival sweep (:mod:`repro.core.parallel`).

The sharding contract: partitioning the source set into blocks, sweeping
each block (in a worker process or not), and stacking the sub-matrices
must reproduce the in-process sweep element for element — with black-box
presences lowered in the *parent* through the engine's LazyContactCache,
so arbitrary predicates never pickle and each fires at most once per
(edge, date).  Tests that actually spawn worker processes carry the
``slow`` marker so the fast gate stays sandbox-friendly.
"""

import concurrent.futures
import pickle
from dataclasses import replace

import numpy as np
import pytest
from plan_helpers import make_plan, swept_dates

from repro.analysis.reachability import reachability_matrix, reachability_ratio
from repro.core import parallel
from repro.core.engine import UNREACHED, TemporalEngine
from repro.core.generators import periodic_random_tvg
from repro.core.index import split_csr
from repro.core.latency import function_latency
from repro.core.parallel import (
    MIN_PARALLEL_NODES,
    ProcessShards,
    SweepPlan,
    build_sweep_plan,
    partition_sources,
    sweep_block,
)
from repro.core.presence import function_presence, periodic_presence
from repro.core.semantics import NO_WAIT, WAIT, bounded_wait
from repro.core.sweep_kernel import offset_dtype
from repro.core.time_domain import Lifetime
from repro.core.tvg import TimeVaryingGraph

HORIZON = 14
SEMANTICS = [NO_WAIT, WAIT, bounded_wait(2)]


class CountingPredicate:
    """A black-box schedule that records every date it is asked about."""

    def __init__(self, period=3, residue=1):
        self.period = period
        self.residue = residue
        self.calls: list[int] = []

    def __call__(self, t: int) -> bool:
        self.calls.append(t)
        return t % self.period == self.residue

    def max_calls_per_date(self) -> int:
        return max(self.calls.count(t) for t in set(self.calls)) if self.calls else 0


def random_graph(n=12, seed=3):
    return periodic_random_tvg(n, period=6, density=0.12, seed=seed)


def blackbox_ring(n=10, horizon=HORIZON):
    """A ring with one fresh counting predicate per edge plus a lambda
    latency — nothing on it pickles, which is exactly the point."""
    g = TimeVaryingGraph(lifetime=Lifetime(0, horizon), name="blackbox-ring")
    g.add_nodes(range(n))
    predicates = []
    for u in range(n):
        predicate = CountingPredicate(3, u % 3)
        predicates.append(predicate)
        g.add_edge(
            u,
            (u + 1) % n,
            presence=function_presence(predicate, f"p{u}"),
            latency=function_latency(lambda t: 1 + t % 2, "odd-even"),
        )
    g.add_edge(0, n // 2, presence=periodic_presence([0, 2], 4), key="chord")
    return g, predicates


def edgeless_plan(n):
    return make_plan(
        n=n, out_edges=[()] * n, target_idx=(), contacts=(), arrivals=(),
        start_time=0, horizon=HORIZON, max_wait=None,
    )


class InlinePool:
    """Stands in for ``ProcessPoolExecutor``: records the worker count
    asked for and runs the tasks in this process."""

    opened: list[int] = []

    def __init__(self, max_workers, initializer, initargs, **_kwargs):
        self.opened.append(max_workers)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def map(self, fn, blocks):
        return map(fn, blocks)


def no_pool(*args, **kwargs):  # pragma: no cover — fails the test
    raise AssertionError("a process pool was opened")


class TestPartition:
    def test_blocks_cover_all_sources_in_order(self):
        for n in (1, 2, 7, 8, 20):
            for shards in (1, 2, 3, 4, 50):
                blocks = partition_sources(n, shards)
                assert [i for block in blocks for i in block] == list(range(n))
                assert all(block for block in blocks)
                assert len(blocks) == min(shards, n) if n else not blocks

    def test_blocks_are_balanced(self):
        sizes = [len(b) for b in partition_sources(10, 4)]
        assert sorted(sizes) == [2, 2, 3, 3]

    def test_process_shards_policy(self, monkeypatch):
        """A pool opens only for 2+ shards over a graph of at least
        MIN_PARALLEL_NODES nodes, one worker per block, never more
        blocks than sources."""
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(InlinePool, "opened", [])
        monkeypatch.setattr(parallel, "_WORKER_PLAN", None)
        for n, count in (
            (100, 1),
            (MIN_PARALLEL_NODES - 1, 4),  # tiny graph
            (MIN_PARALLEL_NODES, 4),
            (10, 64),  # clamped to the node count
        ):
            plan = edgeless_plan(n)
            matrix = ProcessShards(count).sweep(plan)
            assert np.array_equal(matrix, sweep_block(plan, range(n)))
        assert InlinePool.opened == [4, 10]

    def test_shard_count_must_be_positive(self):
        with pytest.raises(ValueError):
            ProcessShards(0)

    def test_more_shards_than_sources_never_yields_empty_blocks(self):
        for n in (1, 2, 5):
            blocks = partition_sources(n, n + 37)
            assert len(blocks) == n
            assert all(len(block) == 1 for block in blocks)
            assert [i for block in blocks for i in block] == list(range(n))

    def test_empty_source_set_partitions_to_nothing(self):
        assert partition_sources(0, 1) == []
        assert partition_sources(0, 8) == []

    def test_single_shard_is_one_covering_block(self):
        for n in (1, 7, 20):
            assert partition_sources(n, 1) == [tuple(range(n))]

    def test_blocks_are_contiguous_and_disjoint(self):
        for n in (5, 9, 16):
            for shards in (2, 3, 4, 7):
                blocks = partition_sources(n, shards)
                seen: set[int] = set()
                for block in blocks:
                    assert block == tuple(range(block[0], block[-1] + 1))
                    assert not seen & set(block)
                    seen |= set(block)
                assert seen == set(range(n))

    def test_empty_source_set_never_opens_a_pool(self, monkeypatch):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        for count in (1, 8):
            plan = edgeless_plan(0)
            matrix = ProcessShards(count).sweep(plan)
            assert matrix.shape == (0, 0) and matrix.dtype == offset_dtype(plan)


class TestSweepPlan:
    def test_plan_is_plain_picklable_data(self):
        g, _predicates = blackbox_ring()
        engine = TemporalEngine(g)
        nodes, plan = build_sweep_plan(engine, 0, WAIT, HORIZON)
        clone = pickle.loads(pickle.dumps(plan))
        assert clone == plan
        assert len(nodes) == plan.n

    def test_blackbox_lowering_happens_once_in_the_parent(self):
        g, predicates = blackbox_ring()
        engine = TemporalEngine(g)
        build_sweep_plan(engine, 0, WAIT, HORIZON)
        build_sweep_plan(engine, 0, NO_WAIT, HORIZON)  # second plan: cache hit
        for predicate in predicates:
            assert sorted(set(predicate.calls)) == list(range(0, HORIZON))
            assert predicate.max_calls_per_date() == 1

    def test_fingerprint_tells_apart_every_one_value_change(self):
        """One header int, one array element, or only where an array
        boundary falls: each change gives a different fingerprint."""
        plan = make_plan(
            n=2, out_edges=((0, 1), ()), target_idx=(1, 1),
            contacts=((1, 2), (3,)), arrivals=((2, 3), (5,)),
            start_time=0, horizon=8, max_wait=None,
        )
        variants = [
            replace(plan, n=3),
            replace(plan, start_time=1),
            replace(plan, horizon=9),
            replace(plan, max_wait=0),  # None (unbounded) is not 0
            replace(plan, max_wait=1),
        ]
        for name in SweepPlan.ARRAYS:
            bumped = getattr(plan, name).copy()
            bumped[-1] += 1
            variants.append(replace(plan, **{name: bumped}))
        # Move the first value of each array onto the end of the one
        # before it: the concatenated bytes stay the same.
        names = SweepPlan.ARRAYS
        for before, after in zip(names, names[1:]):
            head, tail = getattr(plan, before), getattr(plan, after)
            moved = replace(
                plan,
                **{before: np.append(head, tail[0]), after: tail[1:].copy()},
            )
            assert np.array_equal(
                np.concatenate([getattr(moved, a) for a in names]),
                np.concatenate([getattr(plan, a) for a in names]),
            )
            variants.append(moved)
        fingerprints = {p.fingerprint for p in [plan, *variants]}
        assert len(fingerprints) == 1 + len(variants)
        assert all(len(f) == 16 for f in fingerprints)
        # Content, not identity, and not the Python type of the ints.
        assert replace(plan).fingerprint == plan.fingerprint
        numpy_header = replace(plan, n=np.int64(2), horizon=np.int64(8))
        assert numpy_header.fingerprint == plan.fingerprint

    def test_plan_arrivals_swallow_callable_latencies(self):
        g, _predicates = blackbox_ring()
        engine = TemporalEngine(g)
        _nodes, plan = build_sweep_plan(engine, 0, WAIT, HORIZON)
        arrivals_per_edge = split_csr(plan.edge_ptr, plan.arr)
        for contacts, arrivals in zip(plan.contacts, arrivals_per_edge):
            assert len(contacts) == len(arrivals)
            assert all(arr > dep for dep, arr in zip(contacts, arrivals))


class TestBlockSweepEquality:
    @pytest.mark.parametrize("semantics", SEMANTICS)
    @pytest.mark.parametrize("shards", [2, 3, 5])
    def test_stacked_blocks_equal_serial(self, semantics, shards):
        g = random_graph()
        engine = TemporalEngine(g)
        _nodes, serial = engine.arrival_matrix(0, semantics, horizon=HORIZON)
        nodes, plan = build_sweep_plan(engine, 0, semantics, HORIZON)
        blocks = partition_sources(plan.n, shards)
        stacked = np.vstack([swept_dates(plan, block) for block in blocks])
        assert np.array_equal(stacked, serial)

    @pytest.mark.parametrize("semantics", SEMANTICS)
    def test_blackbox_blocks_equal_serial(self, semantics):
        g, predicates = blackbox_ring()
        engine = TemporalEngine(g)
        _nodes, serial = engine.arrival_matrix(0, semantics)
        _same, plan = build_sweep_plan(engine, 0, semantics, HORIZON)
        stacked = np.vstack(
            [swept_dates(plan, block) for block in partition_sources(plan.n, 4)]
        )
        assert np.array_equal(stacked, serial)
        for predicate in predicates:
            assert predicate.max_calls_per_date() == 1

    def test_single_block_is_the_whole_matrix(self):
        g = random_graph()
        engine = TemporalEngine(g)
        _nodes, serial = engine.arrival_matrix(2, WAIT, horizon=HORIZON)
        _same, plan = build_sweep_plan(engine, 2, WAIT, HORIZON)
        assert np.array_equal(swept_dates(plan, range(plan.n)), serial)

    def test_start_at_horizon_leaves_only_the_diagonal(self):
        g = random_graph()
        engine = TemporalEngine(g)
        _nodes, plan = build_sweep_plan(engine, 9, WAIT, 9)
        block = swept_dates(plan, range(plan.n))
        expected = np.full((plan.n, plan.n), UNREACHED, dtype=np.int64)
        np.fill_diagonal(expected, 9)
        assert np.array_equal(block, expected)


class TestEngineFallbacks:
    def test_one_shard_stays_serial(self, monkeypatch):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        engine = TemporalEngine(random_graph(), executor=ProcessShards(1))
        nodes, matrix = engine.arrival_matrix(0, WAIT, horizon=HORIZON)
        assert matrix.shape == (len(nodes), len(nodes))

    def test_tiny_graph_stays_serial(self, monkeypatch):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        g = random_graph(n=MIN_PARALLEL_NODES - 1)
        engine = TemporalEngine(g, executor=ProcessShards(8))
        nodes, matrix = engine.arrival_matrix(0, WAIT, horizon=HORIZON)
        assert matrix.shape == (len(nodes), len(nodes))

    def test_empty_graph_stays_serial_and_answers_0xn(self, monkeypatch):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        g = TimeVaryingGraph(lifetime=Lifetime(0, HORIZON), name="empty")
        nodes, matrix = TemporalEngine(g, executor=ProcessShards(8)).arrival_matrix(
            0, WAIT, horizon=HORIZON
        )
        assert nodes == [] and matrix.shape == (0, 0)

    def test_sharded_call_on_empty_sources_never_opens_a_pool(self, monkeypatch):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        g = TimeVaryingGraph(lifetime=Lifetime(0, HORIZON), name="empty")
        _nodes, plan = build_sweep_plan(TemporalEngine(g), 0, WAIT, HORIZON)
        matrix = ProcessShards(4).sweep(plan)
        assert matrix.shape == (0, 0) and matrix.dtype == offset_dtype(plan)

    def test_refused_pool_sweeps_in_process(self, monkeypatch):
        """A host that forbids subprocesses still gets the answer."""

        def refuse(*args, **kwargs):
            raise OSError("no subprocesses here")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
        g = random_graph()
        engine = TemporalEngine(g, executor=ProcessShards(3))
        _nodes, sharded = engine.arrival_matrix(0, WAIT, horizon=HORIZON)
        _same, serial = TemporalEngine(g).arrival_matrix(0, WAIT, horizon=HORIZON)
        assert np.array_equal(sharded, serial)


@pytest.mark.slow
class TestMultiprocessSharding:
    """End-to-end through real worker processes (hence ``slow``)."""

    @pytest.mark.parametrize("semantics", SEMANTICS)
    def test_engine_shards_equal_serial(self, semantics):
        g = random_graph(n=16, seed=11)
        serial_engine = TemporalEngine(g)
        sharded_engine = TemporalEngine(g, executor=ProcessShards(4))
        nodes, serial = serial_engine.arrival_matrix(0, semantics, horizon=HORIZON)
        same, sharded = sharded_engine.arrival_matrix(0, semantics, horizon=HORIZON)
        assert nodes == same
        assert np.array_equal(serial, sharded)

    def test_blackbox_graph_through_processes(self):
        g, predicates = blackbox_ring(n=12)
        engine = TemporalEngine(g, executor=ProcessShards(3))
        nodes, sharded = engine.arrival_matrix(0, WAIT)
        # The workers never touched the predicates: the parent's call
        # log is complete (every date lowered once) and duplicate-free.
        # (Checked before the serial oracle runs — its own fresh engine
        # legitimately rescans through a second cache.)
        for predicate in predicates:
            assert sorted(set(predicate.calls)) == list(range(0, HORIZON))
            assert predicate.max_calls_per_date() == 1
        _same, serial = TemporalEngine(g).arrival_matrix(0, WAIT)
        assert np.array_equal(serial, sharded)

    def test_derived_views_accept_shards(self):
        g = random_graph(n=12, seed=5)
        engine = TemporalEngine(g, executor=ProcessShards(2))
        serial = TemporalEngine(g)
        _nodes, boolean = reachability_matrix(g, 0, WAIT, HORIZON, engine=engine)
        _same, expected = reachability_matrix(g, 0, WAIT, HORIZON, engine=serial)
        assert np.array_equal(boolean, expected)
        assert reachability_ratio(
            g, 0, WAIT, HORIZON, engine=engine
        ) == reachability_ratio(g, 0, WAIT, HORIZON, engine=serial)

    def test_direct_sharded_call(self):
        g = random_graph(n=10, seed=9)
        engine = TemporalEngine(g)
        _nodes, plan = build_sweep_plan(engine, 0, bounded_wait(1), HORIZON)
        sharded = ProcessShards(4).sweep(plan)
        _same, serial = TemporalEngine(g).arrival_matrix(
            0, bounded_wait(1), horizon=HORIZON
        )
        assert np.array_equal(serial, sharded)
