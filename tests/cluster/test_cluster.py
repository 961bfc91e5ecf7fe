"""End-to-end tests for the distributed arrival sweep.

Real loopback workers (asyncio servers indistinguishable on the wire
from ``python -m repro worker``), a real executor, and the one claim
that matters: whatever the fleet does — cooperate, refuse, die, hang,
or lie about shapes — the stacked matrix equals the serial sweep
element for element.

Marked ``cluster`` *and* ``service``: these open loopback sockets,
which some sandboxes forbid — deselect with ``-m "not service"`` (or
``-m "not cluster"``) there.
"""

import asyncio

import numpy as np
import pytest
from faulty_worker import FaultyWorker

from repro.core.engine import TemporalEngine
from repro.core.generators import periodic_random_tvg
from repro.core.latency import function_latency
from repro.core.presence import function_presence, periodic_presence
from repro.core.semantics import NO_WAIT, WAIT, bounded_wait
from repro.core.time_domain import Lifetime
from repro.core.tvg import TimeVaryingGraph
from repro.service.cluster import (
    DEFAULT_TIMEOUT,
    ClusterExecutor,
    LoopbackWorkerPool,
    _run_sync,
    handle_worker_request,
)
from repro.service.service import TVGService

pytestmark = [pytest.mark.cluster, pytest.mark.service]

HORIZON = 14
SEMANTICS = [NO_WAIT, WAIT, bounded_wait(2)]


def random_graph(n=16, seed=11):
    return periodic_random_tvg(n, period=6, density=0.12, seed=seed)


def blackbox_ring(n=10):
    """Nothing on it pickles or serializes: black-box predicates and a
    lambda latency, all resolved in the parent when the plan is built."""
    g = TimeVaryingGraph(lifetime=Lifetime(0, HORIZON), name="blackbox-ring")
    g.add_nodes(range(n))
    for u in range(n):
        g.add_edge(
            u,
            (u + 1) % n,
            presence=function_presence(
                lambda t, u=u: t % 3 == u % 3, f"p{u}"
            ),
            latency=function_latency(lambda t: 1 + t % 2, "odd-even"),
        )
    g.add_edge(0, n // 2, presence=periodic_presence([0, 2], 4), key="chord")
    return g


@pytest.fixture(scope="module")
def pool():
    try:
        with LoopbackWorkerPool(2) as workers:
            yield workers
    except OSError as exc:  # pragma: no cover — sandbox
        pytest.skip(f"loopback sockets unavailable: {exc}")


class TestRunSync:
    """Pins for the sync/async bridge: sockets never enter the picture.

    ``_run_sync`` must behave identically whether or not the caller is
    already on an event loop — in particular, exceptions from the
    coroutine must *propagate*, never be swallowed (the executor's
    local-resweep fallback keys off them).
    """

    def test_returns_value_outside_a_loop(self):
        async def coro():
            return 41 + 1

        assert _run_sync(coro()) == 42

    def test_propagates_exception_outside_a_loop(self):
        async def coro():
            raise ValueError("sweep failed")

        with pytest.raises(ValueError, match="sweep failed"):
            _run_sync(coro())

    def test_returns_value_inside_a_running_loop(self):
        async def inner():
            return "nested"

        async def outer():
            return _run_sync(inner())

        assert asyncio.run(outer()) == "nested"

    def test_propagates_exception_inside_a_running_loop(self):
        async def inner():
            raise RuntimeError("worker gone")

        async def outer():
            with pytest.raises(RuntimeError, match="worker gone"):
                _run_sync(inner())
            return True

        assert asyncio.run(outer())


class TestDistributedEqualsSerial:
    @pytest.mark.parametrize("semantics", SEMANTICS)
    def test_matrix_identical_across_the_wire(self, pool, semantics):
        g = random_graph()
        cluster = ClusterExecutor(pool.addresses)
        nodes, distributed = TemporalEngine(g, executor=cluster).arrival_matrix(
            0, semantics, horizon=HORIZON
        )
        same, serial = TemporalEngine(g).arrival_matrix(0, semantics, horizon=HORIZON)
        assert nodes == same
        assert np.array_equal(distributed, serial)
        assert cluster.jobs_shipped >= 2 and cluster.jobs_recovered == 0

    def test_blackbox_graph_never_crosses_the_wire(self, pool):
        g = blackbox_ring()
        cluster = ClusterExecutor(pool.addresses)
        nodes, distributed = TemporalEngine(g, executor=cluster).arrival_matrix(0, WAIT)
        _same, serial = TemporalEngine(g).arrival_matrix(0, WAIT)
        assert np.array_equal(distributed, serial)

    def test_derived_views_accept_cluster(self, pool):
        g = random_graph(n=12, seed=5)
        cluster = ClusterExecutor(pool.addresses)
        engine = TemporalEngine(g, executor=cluster)
        nodes, boolean = engine.reachability_matrix(0, WAIT, HORIZON)
        _same, packed = engine.reachability_packed(0, WAIT, HORIZON)
        _also, serial = TemporalEngine(g).reachability_matrix(0, WAIT, HORIZON)
        assert np.array_equal(boolean, serial)
        unpacked = np.unpackbits(packed, axis=0, count=len(nodes), bitorder="little")
        assert np.array_equal(unpacked.astype(bool), boolean)

    def test_tiny_graphs_stay_serial(self, pool):
        g = random_graph(n=4, seed=2)
        cluster = ClusterExecutor(pool.addresses)
        _nodes, matrix = TemporalEngine(g, executor=cluster).arrival_matrix(
            0, WAIT, horizon=HORIZON
        )
        assert cluster.jobs_shipped == 0  # swept in-process
        assert matrix.shape == (4, 4)


class TestFaultRecovery:
    @pytest.mark.parametrize(
        "mode", ["kill", "corrupt", "misshape", "stale-plan-version"]
    )
    def test_faulty_worker_never_changes_the_answer(self, pool, mode):
        g = random_graph()
        with FaultyWorker(mode) as faulty:
            cluster = ClusterExecutor(
                [pool.addresses[0], faulty.address, pool.addresses[1]]
            )
            _nodes, distributed = TemporalEngine(g, executor=cluster).arrival_matrix(
                0, WAIT, horizon=HORIZON
            )
            assert faulty.jobs_seen >= 1  # it really got a block
        _same, serial = TemporalEngine(g).arrival_matrix(0, WAIT, horizon=HORIZON)
        assert np.array_equal(distributed, serial)
        assert cluster.jobs_recovered >= 1

    def test_stale_plan_result_is_rejected_by_fingerprint(self, pool):
        """A stale-plan frame is well-formed AND well-shaped — before
        fingerprint tagging the executor stacked its zeros straight into
        the answer.  Now it must be rejected (counted separately from
        generic recoveries) and the block re-swept locally."""
        g = random_graph()
        with FaultyWorker("stale-plan-version") as faulty:
            cluster = ClusterExecutor(
                [pool.addresses[0], faulty.address, pool.addresses[1]]
            )
            _nodes, distributed = TemporalEngine(g, executor=cluster).arrival_matrix(
                0, WAIT, horizon=HORIZON
            )
            assert faulty.jobs_seen >= 1
        _same, serial = TemporalEngine(g).arrival_matrix(0, WAIT, horizon=HORIZON)
        assert np.array_equal(distributed, serial)
        assert cluster.stale_results_rejected >= 1
        assert cluster.jobs_recovered >= 1
        assert cluster.stats()["stale_results_rejected"] >= 1

    def test_honest_workers_pass_the_fingerprint_check(self, pool):
        g = random_graph()
        cluster = ClusterExecutor(pool.addresses)
        TemporalEngine(g, executor=cluster).arrival_matrix(0, WAIT, horizon=HORIZON)
        assert cluster.jobs_shipped >= 2
        assert cluster.stale_results_rejected == 0
        assert cluster.jobs_recovered == 0

    def test_hanging_worker_times_out_and_recovers(self, pool):
        g = random_graph()
        with FaultyWorker("hang") as faulty:
            cluster = ClusterExecutor(
                [faulty.address, pool.addresses[0]], timeout=0.3
            )
            _nodes, distributed = TemporalEngine(g, executor=cluster).arrival_matrix(
                0, WAIT, horizon=HORIZON
            )
        _same, serial = TemporalEngine(g).arrival_matrix(0, WAIT, horizon=HORIZON)
        assert np.array_equal(distributed, serial)
        assert cluster.jobs_recovered >= 1

    def test_whole_fleet_dead_still_answers(self):
        g = random_graph()
        cluster = ClusterExecutor(["127.0.0.1:1", "127.0.0.1:1"], timeout=1.0)
        _nodes, distributed = TemporalEngine(g, executor=cluster).arrival_matrix(
            0, WAIT, horizon=HORIZON
        )
        _same, serial = TemporalEngine(g).arrival_matrix(0, WAIT, horizon=HORIZON)
        assert np.array_equal(distributed, serial)
        assert cluster.jobs_recovered == cluster.jobs_shipped >= 2


class TestWorkerConcurrency:
    def test_slow_job_does_not_freeze_the_worker_for_other_clients(
        self, pool, monkeypatch
    ):
        """A worker is shared by many executors: while one client's job
        sweeps, another client's ping must still be answered (dispatch
        runs off the event loop)."""
        import asyncio
        import time

        import repro.service.cluster as cluster_mod
        from repro.service.client import ServiceClient

        real = cluster_mod.dispatch_worker

        def slow_dispatch(op, params, plans=None):
            if op == "sweep":
                time.sleep(1.0)
            return real(op, params, plans)

        monkeypatch.setattr(cluster_mod, "dispatch_worker", slow_dispatch)
        host, port_text = pool.addresses[0].rsplit(":", 1)

        async def body():
            g = random_graph(n=10, seed=3)
            engine = TemporalEngine(g)
            from repro.core.parallel import build_sweep_plan
            from repro.service.wire import plan_to_spec

            _nodes, plan = build_sweep_plan(engine, 0, WAIT, HORIZON)
            sweeper = await ServiceClient.connect(host, int(port_text))
            pinger = await ServiceClient.connect(host, int(port_text))
            try:
                job = asyncio.ensure_future(
                    sweeper.request(
                        "sweep", plan=plan_to_spec(plan), sources=[0, 1]
                    )
                )
                await asyncio.sleep(0.1)  # let the slow job start
                began = time.perf_counter()
                assert await pinger.ping() == "pong"
                ping_seconds = time.perf_counter() - began
                await job
                return ping_seconds
            finally:
                await sweeper.close()
                await pinger.close()

        assert asyncio.run(body()) < 0.5  # answered while the sweep slept

    def test_handle_worker_request_stays_synchronous(self):
        """The dispatcher itself is sync (trace replay and unit tests
        call it directly); only the socket handler threads it."""
        assert handle_worker_request({"op": "ping"})["result"] == "pong"


class TestPoolLifecycle:
    def test_startup_failure_leaks_no_loop_or_servers(self, monkeypatch):
        import repro.service.cluster as cluster_mod

        real = cluster_mod.serve_worker
        calls = {"n": 0}

        async def flaky(host="127.0.0.1", port=0, plan_cache=None):
            calls["n"] += 1
            if calls["n"] == 2:
                raise OSError("no more ports")
            return await real(host, port, plan_cache)

        monkeypatch.setattr(cluster_mod, "serve_worker", flaky)
        pool = cluster_mod.LoopbackWorkerPool(2)
        with pytest.raises(OSError, match="no more ports"):
            pool.__enter__()
        # The first worker's server and the loop thread were torn down.
        assert pool._loop is None and pool._thread is None
        assert not pool._servers


class TestStickyPlans:
    """The sticky fast path: plan shipped once per worker, fingerprint
    jobs after, and the one-re-ship repair on eviction."""

    def test_repeat_sweeps_ship_the_plan_once_per_worker(self):
        with LoopbackWorkerPool(2) as pool:
            g = random_graph()
            cluster = ClusterExecutor(pool.addresses)
            engine = TemporalEngine(g, executor=cluster)
            _nodes, first = engine.arrival_matrix(0, WAIT, horizon=HORIZON)
            shipped = cluster.plans_shipped
            assert 1 <= shipped <= len(pool.addresses)
            first_bytes = cluster.bytes_sent
            _same, second = engine.arrival_matrix(0, WAIT, horizon=HORIZON)
            assert np.array_equal(first, second)
            # Same (version, window, semantics) → same fingerprint: the
            # second sweep rides the worker caches, no plan crosses.
            assert cluster.plans_shipped == shipped
            assert cluster.plan_misses == 0 and cluster.jobs_recovered == 0
            assert cluster.bytes_sent - first_bytes < first_bytes

    def test_distinct_queries_ship_distinct_plans(self):
        with LoopbackWorkerPool(1) as pool:
            g = random_graph()
            cluster = ClusterExecutor(pool.addresses)
            engine = TemporalEngine(g, executor=cluster)
            engine.arrival_matrix(0, WAIT, horizon=HORIZON)
            engine.arrival_matrix(0, NO_WAIT, horizon=HORIZON)
            assert cluster.plans_shipped == 2
            assert pool.plan_caches[0].stats()["plans"] == 2

    def test_evicted_plan_is_reshipped_and_never_wrong(self):
        """A worker whose LRU dropped a plan answers the fingerprint job
        with a plan-miss; the executor's one re-ship repairs it — no
        local recovery, no answer change."""
        with LoopbackWorkerPool(1, plan_cache_size=1) as pool:
            cluster = ClusterExecutor(pool.addresses, min_nodes=0)
            engines = {
                seed: TemporalEngine(random_graph(n=12, seed=seed), executor=cluster)
                for seed in (1, 2)
            }
            serials = {
                seed: TemporalEngine(random_graph(n=12, seed=seed)).arrival_matrix(
                    0, WAIT, horizon=HORIZON
                )[1]
                for seed in (1, 2)
            }
            for _round in range(2):
                # Alternating two plans through a one-slot cache evicts
                # the other plan on every sweep.
                for seed, engine in engines.items():
                    _nodes, matrix = engine.arrival_matrix(0, WAIT, horizon=HORIZON)
                    assert np.array_equal(matrix, serials[seed])
            assert cluster.plan_misses >= 1
            assert cluster.jobs_recovered == 0
            assert pool.plan_caches[0].evictions >= 2

    def test_set_workers_forgets_beliefs_about_departed_members(self):
        with LoopbackWorkerPool(1) as pool:
            g = random_graph()
            cluster = ClusterExecutor(pool.addresses)
            engine = TemporalEngine(g, executor=cluster)
            engine.arrival_matrix(0, WAIT, horizon=HORIZON)
            shipped = cluster.plans_shipped
            # Leave and re-join: the executor must not assume the worker
            # still holds the plan (it happens to, but a fresh belief
            # costs one correct re-ship, not a wrong answer).
            cluster.set_workers([])
            cluster.set_workers(pool.addresses)
            engine.arrival_matrix(0, WAIT, horizon=HORIZON)
            assert cluster.plans_shipped == shipped + 1


class TestChaosModes:
    def test_plan_evicted_chaos_becomes_local_resweep_not_a_loop(self, pool):
        """A worker that claims eviction forever gets exactly one
        re-ship, then its jobs fail into local recovery."""
        g = random_graph()
        with FaultyWorker("plan-evicted") as faulty:
            cluster = ClusterExecutor([pool.addresses[0], faulty.address])
            _nodes, distributed = TemporalEngine(g, executor=cluster).arrival_matrix(
                0, WAIT, horizon=HORIZON
            )
            assert faulty.jobs_seen >= 1
        _same, serial = TemporalEngine(g).arrival_matrix(0, WAIT, horizon=HORIZON)
        assert np.array_equal(distributed, serial)
        assert cluster.jobs_recovered >= 1

    def test_steal_crash_takes_its_block_to_the_grave(self, pool):
        """The worst stealing case: a worker accepts a block, then dies
        completely (no reply, listener closed).  The block must be
        recovered and later jobs routed around the corpse."""
        g = random_graph()
        with FaultyWorker("steal-crash") as faulty:
            cluster = ClusterExecutor(
                [pool.addresses[0], faulty.address, pool.addresses[1]],
                timeout=2.0,
            )
            _nodes, distributed = TemporalEngine(g, executor=cluster).arrival_matrix(
                0, WAIT, horizon=HORIZON
            )
            assert faulty.jobs_seen >= 1
        _same, serial = TemporalEngine(g).arrival_matrix(0, WAIT, horizon=HORIZON)
        assert np.array_equal(distributed, serial)
        assert cluster.jobs_recovered >= 1

    def test_hang_recovery_is_specifically_a_timeout(self, pool):
        """Regression: the hang double used to give up after 10 s —
        shorter than the default 30 s job timeout — so "hang" chaos
        actually manifested as EOF and the asyncio.TimeoutError branch
        (a *subclass of OSError* on this Python, so except-order matters)
        went unexercised.  Now it holds until close(); with a short job
        timeout the recovery must be counted as a timeout."""
        g = random_graph()
        with FaultyWorker("hang") as faulty:
            cluster = ClusterExecutor(
                [faulty.address, pool.addresses[0]], timeout=0.3
            )
            _nodes, distributed = TemporalEngine(g, executor=cluster).arrival_matrix(
                0, WAIT, horizon=HORIZON
            )
        _same, serial = TemporalEngine(g).arrival_matrix(0, WAIT, horizon=HORIZON)
        assert np.array_equal(distributed, serial)
        assert cluster.jobs_timed_out >= 1
        assert cluster.jobs_recovered >= cluster.jobs_timed_out
        assert cluster.stats()["jobs_timed_out"] >= 1


class TestElasticFleet:
    def test_worker_joining_mid_sweep_steals_queued_blocks(self, pool):
        """A sweep starts against one hanging worker; a healthy worker
        joins mid-flight via set_workers and drains the queue, so the
        sweep finishes in ~one job timeout instead of one per block."""
        import threading
        import time

        g = random_graph()
        with FaultyWorker("hang") as faulty:
            cluster = ClusterExecutor([faulty.address], timeout=1.0)
            timer = threading.Timer(
                0.2,
                cluster.set_workers,
                args=([faulty.address, pool.addresses[0]],),
            )
            timer.start()
            began = time.perf_counter()
            try:
                _nodes, distributed = TemporalEngine(g, executor=cluster).arrival_matrix(
                    0, WAIT, horizon=HORIZON
                )
            finally:
                timer.cancel()
                timer.join()
            elapsed = time.perf_counter() - began
        _same, serial = TemporalEngine(g).arrival_matrix(0, WAIT, horizon=HORIZON)
        assert np.array_equal(distributed, serial)
        # The joined worker answered remotely (only it could have) …
        assert cluster.jobs_shipped - cluster.jobs_recovered >= 1
        # … so only the hanging worker's in-flight block paid a timeout.
        assert elapsed < 3.0

    def test_fleet_shrinking_to_empty_goes_local(self, pool):
        g = random_graph()
        cluster = ClusterExecutor(pool.addresses)
        engine = TemporalEngine(g, executor=cluster)
        engine.arrival_matrix(0, WAIT, horizon=HORIZON)
        shipped = cluster.jobs_shipped
        cluster.set_workers([])
        _nodes, matrix = engine.arrival_matrix(0, WAIT, horizon=HORIZON)
        _same, serial = TemporalEngine(g).arrival_matrix(0, WAIT, horizon=HORIZON)
        assert np.array_equal(matrix, serial)
        assert cluster.jobs_shipped == shipped  # nothing left to ship to

    def test_set_workers_validates_every_address(self, pool):
        from repro.errors import ServiceError

        cluster = ClusterExecutor(pool.addresses)
        with pytest.raises(ServiceError):
            cluster.set_workers(["not-an-address"])
        # The failed call must not have half-applied.
        assert [f"{h}:{p}" for h, p in cluster.workers] == list(pool.addresses)

    def test_oversplit_produces_more_blocks_than_workers(self, pool):
        g = random_graph()
        cluster = ClusterExecutor(pool.addresses, oversplit=4)
        TemporalEngine(g, executor=cluster).arrival_matrix(0, WAIT, horizon=HORIZON)
        assert cluster.jobs_shipped >= 2 * len(pool.addresses)
        assert cluster.stats()["oversplit"] == 4

    def test_oversplit_must_be_positive(self):
        from repro.errors import ServiceError

        with pytest.raises(ServiceError):
            ClusterExecutor([], oversplit=0)


class TestServiceIntegration:
    def test_service_with_workers_matches_local_service(self, pool):
        g = random_graph()
        clustered = TVGService(g, executor=ClusterExecutor(pool.addresses))
        local = TVGService(random_graph())
        assert clustered.growth(0, HORIZON) == local.growth(0, HORIZON)
        assert clustered.arrival(0, 7, 0, HORIZON) == local.arrival(0, 7, 0, HORIZON)
        assert clustered.classify(0, HORIZON) == local.classify(0, HORIZON)
        stats = clustered.stats()
        assert stats["cluster"]["jobs_shipped"] >= 2
        assert stats["cluster"]["jobs_recovered"] == 0

    def test_service_accepts_a_ready_executor(self, pool):
        cluster = ClusterExecutor(pool.addresses, timeout=5.0)
        service = TVGService(random_graph(), executor=cluster)
        assert service.engine.executor is cluster
        assert service.reach(0, 1, 0, HORIZON) == TVGService(random_graph()).reach(
            0, 1, 0, HORIZON
        )

    def test_service_set_workers_attaches_and_detaches_the_fleet(self, pool):
        cluster = ClusterExecutor([], timeout=2.5, oversplit=3)
        service = TVGService(random_graph(), executor=cluster)
        resolved = service.set_workers(pool.addresses)
        assert resolved == list(pool.addresses)
        # The engine keeps its executor, and with it its configuration.
        assert service.engine.executor is cluster
        assert cluster.timeout == 2.5
        assert cluster.oversplit == 3
        local = TVGService(random_graph())
        assert service.growth(0, HORIZON) == local.growth(0, HORIZON)
        assert cluster.jobs_shipped >= 1
        assert service.set_workers([]) == []
        shipped = cluster.jobs_shipped
        service.graph.add_edge(0, 1, presence=periodic_presence([0], 2))
        service._mutated()
        service.arrival(0, 1, 0, HORIZON)
        assert cluster.jobs_shipped == shipped  # swept locally

    def test_service_set_workers_attaches_a_default_executor(self, pool):
        service = TVGService(random_graph())
        assert service.set_workers([]) == []
        assert service.engine.executor is None
        assert service.set_workers(pool.addresses) == list(pool.addresses)
        cluster = service.engine.executor
        assert isinstance(cluster, ClusterExecutor)
        assert cluster.timeout == DEFAULT_TIMEOUT

    def test_set_workers_over_the_wire(self, pool):
        """The elastic-membership op end to end: dispatch-level frames
        re-resolve a served service's fleet (and reject bad params)."""
        from repro.service.server import handle_request

        service = TVGService(random_graph())
        response = handle_request(
            service, {"op": "set_workers", "id": 1, "workers": list(pool.addresses)}
        )
        assert response == {"id": 1, "ok": True, "result": list(pool.addresses)}
        assert isinstance(service.engine.executor, ClusterExecutor)
        for bad in (None, "127.0.0.1:1", [1, 2], [["127.0.0.1", 1]]):
            frame = handle_request(
                service, {"op": "set_workers", "id": 2, "workers": bad}
            )
            assert not frame["ok"] and "host:port" in frame["error"]
        # A malformed address inside a well-typed list is a structured
        # error too, and must not half-apply.
        frame = handle_request(
            service, {"op": "set_workers", "id": 3, "workers": ["nope"]}
        )
        assert not frame["ok"] and frame["error"].startswith("ServiceError")
        assert [f"{h}:{p}" for h, p in service.engine.executor.workers] == list(
            pool.addresses
        )
