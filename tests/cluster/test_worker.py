"""Socket-free tests for the cluster's worker side.

The worker dispatcher (:func:`repro.service.cluster.dispatch_worker`)
is a plain function — plan spec plus source block in, packed sub-matrix
out — so its whole contract is testable without opening a port: the
returned matrix must equal :func:`~repro.core.parallel.sweep_block` on
the same inputs, and every malformed request must come back as a
structured error frame, never a crash.
"""

import numpy as np
import pytest
from plan_helpers import make_plan

from repro.core.engine import TemporalEngine
from repro.core.generators import periodic_random_tvg
from repro.core.parallel import (
    MIN_PARALLEL_NODES,
    build_sweep_plan,
    partition_sources,
    sweep_block,
)
from repro.core.semantics import NO_WAIT, WAIT, bounded_wait
from repro.errors import PlanMissError, ServiceError
from repro.service.cluster import (
    ClusterExecutor,
    PlanCache,
    dispatch_worker,
    handle_worker_request,
    parse_worker_address,
)
from repro.service.wire import matrix_from_spec, plan_fingerprint, plan_to_spec

HORIZON = 14


def plan_and_serial(semantics=WAIT, n=12, seed=3):
    graph = periodic_random_tvg(n, period=6, density=0.12, seed=seed)
    engine = TemporalEngine(graph)
    _nodes, serial = engine.arrival_matrix(0, semantics, horizon=HORIZON)
    _same, plan = build_sweep_plan(engine, 0, semantics, HORIZON)
    return plan, serial


class TestDispatcher:
    @pytest.mark.parametrize("semantics", [NO_WAIT, WAIT, bounded_wait(2)])
    def test_sweep_equals_local_block_sweep(self, semantics):
        plan, serial = plan_and_serial(semantics)
        for block in partition_sources(plan.n, 3):
            result = dispatch_worker(
                "sweep", {"plan": plan_to_spec(plan), "sources": list(block)}
            )
            assert np.array_equal(matrix_from_spec(result), serial[list(block)])

    def test_ping(self):
        assert dispatch_worker("ping", {}) == "pong"

    def test_unknown_op_rejected(self):
        with pytest.raises(ServiceError):
            dispatch_worker("arrival", {})

    @pytest.mark.parametrize(
        "sources", [None, "0,1", [0, "1"], [True], [[0]], [0, -1], [0, 99]]
    )
    def test_bad_sources_rejected(self, sources):
        plan, _serial = plan_and_serial()
        with pytest.raises(ServiceError):
            dispatch_worker("sweep", {"plan": plan_to_spec(plan), "sources": sources})

    def test_malformed_plan_rejected(self):
        with pytest.raises(ServiceError):
            dispatch_worker("sweep", {"plan": {"kind": "nope"}, "sources": [0]})

    def test_error_frames_are_structured(self):
        response = handle_worker_request({"op": "sweep", "id": 7, "plan": None})
        assert response == {
            "id": 7,
            "ok": False,
            "error": "ServiceError: sweep needs a plan spec or a plan_key",
        }

    def test_result_frames_echo_the_id(self):
        plan, serial = plan_and_serial()
        response = handle_worker_request(
            {"op": "sweep", "id": 3, "plan": plan_to_spec(plan), "sources": [0, 1]}
        )
        assert response["id"] == 3 and response["ok"]
        assert np.array_equal(matrix_from_spec(response["result"]), serial[:2])


class TestPlanCacheProtocol:
    """The sticky-plan side of the dispatcher: full-plan jobs seed the
    worker's cache, fingerprint-only jobs answer from it or miss with
    the one structured error the executor repairs by re-shipping."""

    def test_fingerprint_only_job_answers_from_the_cache(self):
        plan, serial = plan_and_serial()
        spec = plan_to_spec(plan)
        key = plan_fingerprint(spec)
        plans = PlanCache()
        dispatch_worker("sweep", {"plan": spec, "sources": [0]}, plans)
        result = dispatch_worker(
            "sweep", {"plan_key": key, "sources": [1, 2]}, plans
        )
        assert np.array_equal(matrix_from_spec(result), serial[1:3])
        # Both routes echo the fingerprint of the job actually computed.
        assert result["fingerprint"] == plan_fingerprint(spec, ([1, 2],))

    def test_unknown_fingerprint_is_a_plan_miss(self):
        plans = PlanCache()
        with pytest.raises(PlanMissError):
            dispatch_worker(
                "sweep", {"plan_key": "deadbeefdeadbeef", "sources": [0]}, plans
            )

    def test_plan_miss_frame_is_structured_and_detectable(self):
        """The executor detects a miss by the error frame's exception
        name prefix — pin the wire shape the repair path keys on."""
        response = handle_worker_request(
            {"op": "sweep", "id": 9, "plan_key": "deadbeefdeadbeef", "sources": [0]},
            PlanCache(),
        )
        assert response["id"] == 9 and not response["ok"]
        assert response["error"].startswith("PlanMissError")

    def test_without_a_cache_every_fingerprint_job_misses(self):
        plan, _serial = plan_and_serial()
        spec = plan_to_spec(plan)
        dispatch_worker("sweep", {"plan": spec, "sources": [0]})  # plans=None
        with pytest.raises(PlanMissError):
            dispatch_worker(
                "sweep", {"plan_key": plan_fingerprint(spec), "sources": [0]}
            )

    def test_non_string_plan_key_rejected(self):
        with pytest.raises(ServiceError, match="must be a string"):
            dispatch_worker("sweep", {"plan_key": 7, "sources": [0]}, PlanCache())

    def test_lru_eviction_is_bounded_and_counted(self):
        plans = PlanCache(max_plans=2)
        specs = []
        for seed in (1, 2, 3):
            plan, _ = plan_and_serial(n=8, seed=seed)
            spec = plan_to_spec(plan)
            specs.append(spec)
            dispatch_worker("sweep", {"plan": spec, "sources": [0]}, plans)
        assert len(plans) == 2 and plans.evictions == 1
        # The oldest plan is gone; the two newest still answer.
        with pytest.raises(PlanMissError):
            dispatch_worker(
                "sweep", {"plan_key": plan_fingerprint(specs[0]), "sources": [0]},
                plans,
            )
        for spec in specs[1:]:
            dispatch_worker(
                "sweep", {"plan_key": plan_fingerprint(spec), "sources": [0]},
                plans,
            )
        assert plans.hits == 2 and plans.misses == 1

    def test_zero_capacity_cache_rejected(self):
        with pytest.raises(ServiceError):
            PlanCache(max_plans=0)

    def test_stats_op_reports_the_plan_cache(self):
        plans = PlanCache()
        plan, _ = plan_and_serial()
        dispatch_worker("sweep", {"plan": plan_to_spec(plan), "sources": [0]}, plans)
        report = dispatch_worker("stats", {}, plans)
        assert report["plan_cache"]["plans"] == 1
        assert dispatch_worker("stats", {})["plan_cache"] is None


class TestWorkerAddresses:
    def test_host_port_strings_parse(self):
        assert parse_worker_address("127.0.0.1:7713") == ("127.0.0.1", 7713)
        assert parse_worker_address("sweeper.internal:80") == ("sweeper.internal", 80)
        assert parse_worker_address(("h", 9)) == ("h", 9)

    @pytest.mark.parametrize("text", ["", "7713", ":7713", "host:", "host:x", "h:0", "h:70000"])
    def test_malformed_addresses_rejected(self, text):
        with pytest.raises(ServiceError):
            parse_worker_address(text)

    def test_bracketed_ipv6_literal_keeps_its_address(self):
        """``[::1]:7713`` is host ``::1`` port 7713 — the brackets are
        wire syntax, not part of the address (an earlier build handed
        ``[::1]`` to the connector, which can never resolve)."""
        assert parse_worker_address("[::1]:7713") == ("::1", 7713)
        assert parse_worker_address("[fe80::2]:80") == ("fe80::2", 80)

    def test_bare_multi_colon_host_is_ambiguous(self):
        # "::1:7713" could be port 7713 of ::1 or all-address — reject,
        # pointing at the bracket syntax.
        with pytest.raises(ServiceError, match=r"bracket IPv6"):
            parse_worker_address("::1:7713")

    def test_bracketed_empty_host_rejected(self):
        with pytest.raises(ServiceError, match="empty host"):
            parse_worker_address("[]:7713")

    def test_tuple_ipv6_needs_no_brackets_but_sheds_them(self):
        # A pre-split pair is already unambiguous, brackets optional.
        assert parse_worker_address(("::1", 7713)) == ("::1", 7713)
        assert parse_worker_address(("[::1]", 7713)) == ("::1", 7713)

    def test_bare_string_fleet_is_one_worker_not_characters(self):
        assert ClusterExecutor("127.0.0.1:7713").workers == [("127.0.0.1", 7713)]

    @pytest.mark.parametrize(
        "pair", [("h", 0), ("h", 70000), ("h", "x"), ("", 7713), ("h", None)]
    )
    def test_tuple_addresses_get_the_same_validation(self, pair):
        with pytest.raises(ServiceError):
            parse_worker_address(pair)

    def test_service_accepts_a_bare_worker_string(self):
        from repro.service.service import TVGService

        service = TVGService(periodic_random_tvg(6, period=4, density=0.3, seed=1))
        assert service.set_workers("127.0.0.1:7713") == ["127.0.0.1:7713"]
        assert service.engine.executor.workers == [("127.0.0.1", 7713)]

    def test_service_threads_the_worker_timeout(self):
        from repro.cli import _executor, build_parser
        from repro.service.service import TVGService

        args = build_parser().parse_args(
            ["serve", "--workers", "127.0.0.1:7713", "--worker-timeout", "2.5"]
        )
        graph = periodic_random_tvg(6, period=4, density=0.3, seed=1)
        service = TVGService(graph, executor=_executor(args))
        assert service.engine.executor.timeout == 2.5


class TestExecutorWithoutWorkers:
    def test_empty_fleet_sweeps_locally(self):
        plan, serial = plan_and_serial()
        cluster = ClusterExecutor([])
        assert np.array_equal(cluster.sweep(plan), serial)
        assert cluster.jobs_shipped == 0

    def test_routing_policy(self, monkeypatch):
        """Plans under ``min_nodes`` sources sweep in-process and ship no
        job; from it on, jobs ship (here every connection is refused,
        so each job is re-swept locally)."""

        async def refused(*_args):
            raise OSError("connection refused")

        monkeypatch.setattr(ClusterExecutor, "_remote_sweep", refused)
        for n, min_nodes, ships in (
            (12, MIN_PARALLEL_NODES, True),
            (3, MIN_PARALLEL_NODES, False),  # below MIN_PARALLEL_NODES
            (1, 0, True),
        ):
            plan, serial = plan_and_serial(n=n)
            cluster = ClusterExecutor(["127.0.0.1:7713"], min_nodes=min_nodes)
            assert np.array_equal(cluster.sweep(plan), serial)
            assert (cluster.jobs_shipped > 0) == ships
            assert cluster.jobs_recovered == cluster.jobs_shipped

    def test_empty_plan_answers_without_any_jobs(self):
        empty = make_plan(
            n=0, out_edges=(), target_idx=(), contacts=(), arrivals=(),
            start_time=0, horizon=HORIZON, max_wait=None,
        )
        cluster = ClusterExecutor(["127.0.0.1:1"])  # nothing listens there
        matrix = cluster.sweep(empty)
        assert matrix.shape == (0, 0)
        assert cluster.jobs_shipped == 0

    def test_block_rows_match_serial_rows(self):
        plan, serial = plan_and_serial(bounded_wait(1))
        rows = sweep_block(plan, (4, 1, 7))
        assert np.array_equal(rows, serial[[4, 1, 7]])
