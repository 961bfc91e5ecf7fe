"""Unit tests for TVGService and the synchronous request dispatcher."""

import asyncio
import json

import pytest

from repro.analysis.classes import classify
from repro.analysis.evolution import reachability_growth
from repro.core import sweep_kernel
from repro.core.builders import TVGBuilder
from repro.core.generators import periodic_random_tvg
from repro.core.latency import affine_latency, constant_latency, table_latency
from repro.core.parallel import ProcessShards, build_sweep_plan
from repro.core.presence import (
    always,
    at_times,
    interval_presence,
    never,
    periodic_presence,
)
from repro.core.semantics import NO_WAIT, WAIT, bounded_wait
from repro.core.serialize import encode_latency, encode_presence
from repro.core.traversal import earliest_arrivals
from repro.errors import ServiceError
from repro.service.server import OPS, ServiceFrontend, handle_request, parse_request
from repro.service.service import MAX_SEEDS, TVGService


@pytest.fixture()
def line_service():
    """a -> b -> c with staggered presence; a->c needs waiting."""
    graph = (
        TVGBuilder(name="line")
        .lifetime(0, 10)
        .edge("a", "b", present=[(0, 2)], key="ab")
        .edge("b", "c", present=[(5, 7)], key="bc")
        .build()
    )
    return TVGService(graph)


class TestQueries:
    def test_reach_depends_on_semantics(self, line_service):
        assert line_service.reach("a", "c", 0, 10, WAIT)
        assert not line_service.reach("a", "c", 0, 10, NO_WAIT)

    def test_arrival_matches_interpretive(self, line_service):
        graph = line_service.graph
        for semantics in (NO_WAIT, WAIT):
            oracle = earliest_arrivals(graph, "a", 0, semantics, horizon=10)
            for node in graph.nodes:
                assert line_service.arrival("a", node, 0, 10, semantics) == (
                    oracle.get(node)
                )

    def test_growth_matches_interpretive(self, line_service):
        assert line_service.growth(0, 10, WAIT) == reachability_growth(
            line_service.graph, 0, 10, WAIT
        )

    def test_classify_matches_interpretive(self, line_service):
        report = classify(line_service.graph, 0, 10)
        assert line_service.classify(0, 10) == {
            "classes": sorted(report.classes),
            "interval_connectivity": report.interval_connectivity,
        }

    def test_unknown_node_raises_service_error(self, line_service):
        with pytest.raises(ServiceError):
            line_service.arrival("a", "zz", 0, 10, WAIT)


class TestCachingAcrossMutations:
    def test_repeat_queries_hit_without_recompute(self, line_service):
        first = line_service.growth(0, 10, WAIT)
        misses = line_service.cache.misses
        for _ in range(3):
            assert line_service.growth(0, 10, WAIT) == first
        assert line_service.cache.misses == misses
        assert line_service.cache.hits >= 3

    def test_point_queries_share_one_sweep(self, line_service):
        line_service.arrival("a", "c", 0, 10, WAIT)
        misses = line_service.cache.misses
        # Different pairs, same (version, window, semantics): all hits.
        line_service.arrival("a", "b", 0, 10, WAIT)
        line_service.reach("b", "c", 0, 10, WAIT)
        assert line_service.cache.misses == misses

    def test_growth_shares_the_point_queries_sweep(self, line_service):
        """growth and reach/arrival on the same (window, semantics)
        must run ONE arrival sweep between them, not one each."""
        calls = 0
        original = line_service.engine.arrival_offsets

        def counting(*args, **kwargs):
            nonlocal calls
            calls += 1
            return original(*args, **kwargs)

        line_service.engine.arrival_offsets = counting
        line_service.growth(0, 10, WAIT)
        line_service.reach("a", "c", 0, 10, WAIT)
        line_service.arrival("b", "c", 0, 10, WAIT)
        assert calls == 1

    def test_mutation_invalidates_and_answers_change(self, line_service):
        assert not line_service.reach("a", "c", 0, 10, NO_WAIT)
        line_service.set_presence("bc", periodic_presence([1], 2))
        assert line_service.reach("a", "c", 0, 10, NO_WAIT)
        line_service.set_presence("bc", never())
        assert not line_service.reach("a", "c", 0, 10, WAIT)

    def test_mutation_purges_stale_entries_but_retains_matrix_seeds(
        self, line_service
    ):
        line_service.growth(0, 10, WAIT)
        assert len(line_service.cache) > 0
        line_service.add_edge("c", "a", key="ca")
        # The cache holds nothing stale; the window's matrix survives
        # as the service's seed, and the next miss patches it.
        assert len(line_service.cache) == 0
        assert line_service.cache.purged > 0
        assert line_service.stats()["cache"]["retained"] == 1
        assert line_service.growth(0, 10, WAIT) == reachability_growth(
            line_service.graph, 0, 10, WAIT
        )
        assert (line_service.full_sweeps, line_service.incremental_sweeps) == (1, 1)

    def test_off_mode_mutation_purges_everything(self):
        graph = (
            TVGBuilder(name="line")
            .lifetime(0, 10)
            .edge("a", "b", present=[(0, 2)], key="ab")
            .edge("b", "c", present=[(5, 7)], key="bc")
            .build()
        )
        service = TVGService(graph)
        service.growth(0, 10, WAIT)
        assert len(service.cache) > 0
        service.add_edge("c", "a", key="ca")
        assert len(service.cache) == 0
        assert service.cache.purged > 0

    def test_add_then_remove_roundtrip(self, line_service):
        version = line_service.graph.version
        key = line_service.add_edge("c", "a")
        assert line_service.reach("c", "a", 0, 10, WAIT)
        assert line_service.remove_edge(key) == key
        assert not line_service.reach("c", "a", 0, 10, WAIT)
        assert line_service.graph.version > version
        assert line_service.mutations_applied == 2

    def test_retained_seed_evicted_by_lru_churn_falls_back_to_full_sweep(
        self,
    ):
        """Cache LRU churn cannot touch a seed: the service owns it, so
        the query still patches.  More than :data:`MAX_SEEDS` newer
        windows push it out; the query then falls back to a full sweep
        (never a KeyError, never a stale answer) with coherent
        counters."""
        def build():
            return (
                TVGBuilder(name="line")
                .lifetime(0, 10)
                .edge("a", "b", present=[(0, 2)], key="ab")
                .edge("b", "c", present=[(5, 7)], key="bc")
                .build()
            )

        def oracle(graph):
            return earliest_arrivals(graph, "a", 0, WAIT, horizon=10).get("c")

        service = TVGService(build(), cache_size=2)
        service.arrival("a", "c", 0, 10, WAIT)  # seeds the v0 matrix
        service.add_edge("c", "a", key="ca")
        # Unrelated windows churn the 2-slot cache; the seed survives.
        service.arrival("a", "c", 0, 8, WAIT)
        service.arrival("a", "c", 0, 9, WAIT)
        assert service.cache.evictions == 0  # the mutation emptied it
        service.arrival("a", "c", 1, 8, WAIT)
        assert service.cache.evictions == 1
        assert service.arrival("a", "c", 0, 10, WAIT) == oracle(service.graph)
        assert (service.full_sweeps, service.incremental_sweeps) == (4, 1)

        service.add_edge("a", "c", key="ac", presence=never())
        for start in range(1, MAX_SEEDS + 2):  # MAX_SEEDS + 1 newer windows
            service.arrival("a", "c", start, 10, WAIT)
        assert len(service._seeds) == MAX_SEEDS
        sweeps_before = service.full_sweeps
        answer = service.arrival("a", "c", 0, 10, WAIT)
        assert service.full_sweeps == sweeps_before + 1
        assert service.incremental_sweeps == 1  # no ghost seed was patched
        shadow = build()
        shadow.add_edge("c", "a", key="ca")
        shadow.add_edge("a", "c", key="ac", presence=never())
        assert answer == oracle(shadow)

    def test_surviving_seed_is_patched_not_reswept(self):
        """The control for the eviction case above: without newer
        windows the same query patches the seed incrementally."""
        graph = (
            TVGBuilder(name="line")
            .lifetime(0, 10)
            .edge("a", "b", present=[(0, 2)], key="ab")
            .edge("b", "c", present=[(5, 7)], key="bc")
            .build()
        )
        service = TVGService(graph, cache_size=2)
        service.arrival("a", "c", 0, 10, WAIT)
        service.add_edge("c", "a", key="ca")
        service.arrival("a", "c", 0, 10, WAIT)
        assert service.incremental_sweeps == 1
        assert service.full_sweeps == 1

    def test_evicted_entry_is_answered_from_its_seed(self):
        """A seed at the current version is the answer itself: a query
        whose cache entry was LRU-evicted costs no sweep at all."""
        graph = periodic_random_tvg(8, period=4, density=0.3, seed=2)
        service = TVGService(graph, cache_size=1)
        first = service.growth(0, 8, WAIT)
        service.growth(0, 6, WAIT)  # evicts the first window's entries
        assert service.growth(0, 8, WAIT) == first
        assert (service.full_sweeps, service.incremental_sweeps) == (2, 0)

    def test_churn_keeps_at_most_two_matrices_per_query(self):
        """Each mutation + miss cycle leaves one cached matrix and one
        seed, and the seed *is* the cached matrix — not one more kept
        matrix per cycle — and answers stay exact."""
        graph = periodic_random_tvg(12, period=4, density=0.3, seed=5)
        service = TVGService(graph)
        service.growth(0, 12, WAIT)
        keys = [edge.key for edge in graph.edges]
        query = ("arrival_matrix", 0, 12, str(WAIT))
        for cycle in range(8):
            service.set_presence(
                keys[cycle * 5 % len(keys)], periodic_presence([cycle % 4], 4)
            )
            curve = service.growth(0, 12, WAIT)
            cached = [v for v, q in service.cache._entries if q == query]
            assert cached == [graph.version]
            version, _index, matrix = service._seeds[query]
            assert version == graph.version
            assert matrix is service.cache._entries[(version, query)][1]
            assert curve == reachability_growth(graph, 0, 12, WAIT)
        assert service.incremental_sweeps == 8

    def test_community_churn_lowers_only_the_dirty_community(self, monkeypatch):
        """Two communities with no edge between them: each miss after a
        presence swap re-sweeps a cone inside the swapped edge's
        community and lowers exactly that community's contacts (its
        closure), and every curve equals the interpretive one."""
        graph = TVGBuilder(name="two communities").lifetime(0, 12).build()
        for base in (0, 6):
            for i in range(6):
                for step in (1, 2):
                    graph.add_edge(
                        base + i, base + (i + step) % 6,
                        presence=periodic_presence([(i + step) % 4], 4),
                        key=f"{base + i}-{step}",
                    )
        service = TVGService(graph)
        service.growth(0, 12, WAIT)
        lowered = []
        real = sweep_kernel._BitsetLowering

        def counted(*fields, **named):
            lowered.append(real(*fields, **named))
            return lowered[-1]

        monkeypatch.setattr(sweep_kernel, "_BitsetLowering", counted)
        for cycle in range(8):
            base = 6 * (cycle % 2)
            key = f"{base + cycle % 6}-{1 + cycle % 2}"
            service.set_presence(key, periodic_presence([cycle % 4, 3], 4))
            curve = service.growth(0, 12, WAIT)
            assert curve == reachability_growth(graph, 0, 12, WAIT)
            _nodes, plan = build_sweep_plan(service.engine, 0, WAIT, 12)
            community = [
                len(contacts)
                for edge, contacts in zip(graph.edges, plan.contacts)
                if base <= edge.source < base + 6
            ]
            assert len(lowered) == cycle + 1
            src = lowered[-1].src_s
            assert len(src) == sum(community) < len(plan.dep)
            assert set(src.tolist()) == set(range(base, base + 6))
        assert service.incremental_sweeps == 8

    def test_executor_and_in_process_answers_agree(self):
        """A cone covering every row is patched with or without an
        executor, and both services answer alike."""
        def build():
            return (
                TVGBuilder(name="ring")
                .lifetime(0, 10)
                .edge("a", "b", key="ab")
                .edge("b", "c", key="bc")
                .edge("c", "a", key="ca")
                .build()
            )

        local = TVGService(build())
        sharded = TVGService(build(), executor=ProcessShards(1))
        for service in (local, sharded):
            service.growth(0, 10, WAIT)
            # Every node reaches a, so the cone is all three rows.
            service.set_presence("ab", periodic_presence([1], 2))
        assert local.growth(0, 10, WAIT) == sharded.growth(0, 10, WAIT)
        assert local.growth(0, 10, WAIT) == reachability_growth(
            local.graph, 0, 10, WAIT
        )
        for service in (local, sharded):
            assert (service.full_sweeps, service.incremental_sweeps) == (1, 1)
            assert service.rows_reswept == 3

    def test_stats_shape(self, line_service):
        line_service.growth(0, 10, WAIT)
        line_service.add_edge("c", "a", key="ca")
        stats = line_service.stats()
        assert stats["graph"]["edges"] == 3
        assert stats["queries_served"] == 1
        assert stats["mutations_applied"] == 1
        assert set(stats["cache"]) >= {
            "entries", "hits", "misses", "purged", "retained"
        }


class TestSeeds:
    """The service keeps one seed per arrival-matrix query — the newest
    matrix computed for it — across mutations, for a later miss to
    patch."""

    def test_seed_survives_repeated_mutations(self, line_service):
        """Three mutations carry the one seed three times, and the next
        miss patches it across the whole three-delta chain."""
        line_service.growth(0, 10, WAIT)
        line_service.add_edge("c", "a", key="ca")
        line_service.set_presence("ca", periodic_presence([1], 2))
        line_service.remove_edge("bc")
        assert line_service.stats()["cache"]["retained"] == 3
        assert line_service.growth(0, 10, WAIT) == reachability_growth(
            line_service.graph, 0, 10, WAIT
        )
        assert (line_service.full_sweeps, line_service.incremental_sweeps) == (1, 1)

    def test_retained_counts_one_per_seed_per_mutation(self, line_service):
        line_service.growth(0, 10, WAIT)
        line_service.growth(0, 10, NO_WAIT)
        line_service.add_edge("c", "a", key="ca")
        line_service.set_presence("ca", never())
        assert line_service.stats()["cache"]["retained"] == 4
        assert len(line_service._seeds) == 2

    def test_a_seed_patches_only_its_own_query(self, line_service):
        """A NO_WAIT miss never takes the WAIT seed of the same window;
        it sweeps in full, and the WAIT query still patches its own."""
        line_service.growth(0, 10, WAIT)
        line_service.add_edge("c", "a", key="ca")
        assert line_service.growth(0, 10, NO_WAIT) == reachability_growth(
            line_service.graph, 0, 10, NO_WAIT
        )
        assert (line_service.full_sweeps, line_service.incremental_sweeps) == (2, 0)
        assert line_service.growth(0, 10, WAIT) == reachability_growth(
            line_service.graph, 0, 10, WAIT
        )
        assert (line_service.full_sweeps, line_service.incremental_sweeps) == (2, 1)

    def test_recomputed_seed_is_dropped_last(self):
        """Seeds go least recently *computed* first: a window answered
        again from its seed outlives the windows computed after it."""
        graph = periodic_random_tvg(8, period=4, density=0.3, seed=2)
        service = TVGService(graph, cache_size=1)
        horizons = range(4, 4 + MAX_SEEDS)
        for horizon in horizons:
            service.growth(0, horizon, WAIT)
        service.growth(0, 4, WAIT)  # evicted from the cache: its seed answers
        assert service.full_sweeps == MAX_SEEDS
        service.growth(0, 4 + MAX_SEEDS, WAIT)  # one window too many
        assert len(service._seeds) == MAX_SEEDS
        assert service.growth(0, 4, WAIT) == reachability_growth(graph, 0, 4, WAIT)
        assert service.full_sweeps == MAX_SEEDS + 1
        assert service.growth(0, 5, WAIT) == reachability_growth(graph, 0, 5, WAIT)
        assert service.full_sweeps == MAX_SEEDS + 2

    def test_seeds_stay_bounded_and_exact_under_churn(self):
        """Mutations interleaved with queries over more windows than
        :data:`MAX_SEEDS`: the seeds stay bounded, none is newer than
        the graph, and every answer equals a from-scratch sweep."""
        graph = periodic_random_tvg(8, period=4, density=0.3, seed=7)
        service = TVGService(graph, cache_size=4)
        keys = [edge.key for edge in graph.edges]
        for step in range(30):
            if step % 3 == 2:
                service.set_presence(
                    keys[step % len(keys)], periodic_presence([step % 4], 4)
                )
            # A hot window between cold ones that cycle past MAX_SEEDS.
            end = 6 if step % 2 else 7 + step % (MAX_SEEDS + 3)
            assert service.growth(0, end, WAIT) == reachability_growth(
                graph, 0, end, WAIT
            )
            assert len(service._seeds) <= MAX_SEEDS
            assert all(v <= graph.version for v, _, _ in service._seeds.values())
        assert service.incremental_sweeps > 0


class TestDispatcher:
    def test_query_roundtrip_with_id(self, line_service):
        response = handle_request(
            line_service,
            {"op": "arrival", "id": 9, "source": "a", "target": "c",
             "start": 0, "horizon": 10, "semantics": "wait"},
        )
        assert response == {"id": 9, "ok": True, "result": 6}

    def test_semantics_defaults_to_wait(self, line_service):
        response = handle_request(
            line_service,
            {"op": "reach", "source": "a", "target": "c", "start": 0, "horizon": 10},
        )
        assert response["result"] is True

    def test_mutations_through_the_wire(self, line_service):
        added = handle_request(
            line_service,
            {"op": "add_edge", "source": "c", "target": "a", "key": "ca",
             "presence": {"kind": "periodic", "pattern": [0], "period": 2},
             "latency": {"kind": "constant", "value": 2}},
        )
        assert added == {"ok": True, "result": "ca"}
        assert line_service.reach("c", "a", 0, 10, NO_WAIT)
        swapped = handle_request(
            line_service,
            {"op": "set_presence", "key": "ca", "presence": {"kind": "never"}},
        )
        assert swapped["ok"]
        assert not line_service.reach("c", "a", 0, 10, WAIT)
        removed = handle_request(line_service, {"op": "remove_edge", "key": "ca"})
        assert removed["ok"]
        assert not line_service.graph.has_edge("ca")

    def test_refused_add_edge_leaves_the_graph_unchanged(self, line_service):
        """A taken key on new endpoints is refused before either
        endpoint goes in; a key-less edge then gets the next free key."""
        before = handle_request(line_service, {"op": "stats"})["result"]["graph"]
        refused = handle_request(
            line_service,
            {"op": "add_edge", "source": "x", "target": "y", "key": "ab"},
        )
        assert refused == {
            "ok": False, "error": "ReproError: duplicate edge key 'ab'"
        }
        after = handle_request(line_service, {"op": "stats"})["result"]["graph"]
        assert after == before
        assert line_service.mutations_applied == 0
        added = handle_request(
            line_service, {"op": "add_edge", "source": "x", "target": "y"}
        )
        assert added == {"ok": True, "result": "e0"}

    @pytest.mark.parametrize(
        "request_dict",
        [
            {"op": "unknown-op"},
            {"no-op-field": True},
            {"op": "reach", "source": "a"},  # missing params
            {"op": "reach", "source": "a", "target": "c", "start": 0,
             "horizon": 10, "semantics": "perhaps"},
            {"op": "reach", "source": "a", "target": "c", "start": 0,
             "horizon": 10, "semantics": 5},  # non-string semantics
            {"op": "growth", "start": 0, "end": 10, "semantics": None},
            {"op": "remove_edge", "key": "nope"},
            {"op": "add_edge", "source": "a", "target": "c",
             "presence": {"kind": "quantum"}},
            {"op": "growth", "start": 9, "end": 2},  # bad window
            {"op": "reach", "source": ["a"], "target": "c", "start": 0,
             "horizon": 10},
            {"op": "arrival", "source": "a", "target": {"id": "c"}, "start": 0,
             "horizon": 10},
            {"op": "remove_edge", "key": ["ab"]},
        ],
    )
    def test_bad_requests_become_error_responses(self, line_service, request_dict):
        response = handle_request(line_service, request_dict)
        assert response["ok"] is False
        assert response["error"]
        for field in ("source", "target", "key"):
            if isinstance(request_dict.get(field), (list, dict)):
                # A list or object where an id belongs is named, not
                # hashed into a TypeError.
                assert response["error"].startswith("ServiceError: ")
                assert repr(field) in response["error"]

    @pytest.mark.parametrize("submitted", [False, True], ids=["direct", "submit"])
    @pytest.mark.parametrize(
        "value",
        [True, False, 8.5, "9", None, [1], {"t": 1},
         2**62, -2**62, 10**30, -10**30],
        ids=repr,
    )
    @pytest.mark.parametrize(
        "op, field",
        [
            ("reach", "start"), ("reach", "horizon"),
            ("arrival", "start"), ("arrival", "horizon"),
            ("growth", "start"), ("growth", "end"),
            ("classify", "start"), ("classify", "end"),
        ],
    )
    def test_non_integer_dates_rejected(
        self, line_service, op, field, value, submitted
    ):
        """A date that is not a non-bool int, or lies at or beyond
        ±2**62, is refused at the boundary, direct or submitted."""
        request = {
            "op": op, "source": "a", "target": "c",
            "start": 0, "horizon": 10, "end": 10, field: value,
        }
        if submitted:
            request = {"op": "submit", "request": request}
        response = handle_request(line_service, request)
        assert response["ok"] is False
        assert response["error"].startswith("ServiceError: ")
        assert repr(field) in response["error"]
        assert line_service.queries_served == 0
        assert line_service.tasks.stats()["submitted"] == 0

    @pytest.mark.parametrize("submitted", [False, True], ids=["direct", "submit"])
    @pytest.mark.parametrize("date", [2**62 - 1, -(2**62 - 1)], ids=["max", "min"])
    @pytest.mark.parametrize("op", ["reach", "arrival", "growth", "classify"])
    def test_dates_just_inside_2_62_parse(self, op, date, submitted):
        """The parse alone: running such a query may cost unbounded
        work, which no budget bounds yet."""
        dates = {"start": date, "horizon": date, "end": date}
        request = {"op": op, "source": "a", "target": "c", **dates}
        if submitted:
            _spec, fields = parse_request("submit", {"request": request})
            fields = fields["request"][1].keywords
        else:
            _spec, fields = parse_request(op, request)
        expected = {name: date for name, *_ in OPS[op].fields if name in dates}
        assert {name: fields[name] for name in expected} == expected

    def test_oversized_latency_is_refused_and_the_graph_keeps_answering(
        self, line_service
    ):
        edges = line_service.graph.edge_count
        for value in (10**30, True):
            response = handle_request(
                line_service,
                {"op": "add_edge", "source": "a", "target": "c",
                 "latency": {"kind": "constant", "value": value}},
            )
            assert response["ok"] is False
            assert "field 'latency'" in response["error"]
        assert line_service.graph.edge_count == edges
        growth = handle_request(line_service, {"op": "growth", "start": 0, "end": 10})
        assert growth["ok"] is True and len(growth["result"]) == 10

    def test_background_window_too_big_to_allocate_fails_the_task(
        self, line_service
    ):
        submitted = handle_request(
            line_service,
            {"op": "submit", "request": {"op": "growth", "start": 0, "end": 10**12}},
        )
        task = submitted["result"]["task"]
        assert line_service.task_wait(task, timeout=10)
        status = handle_request(line_service, {"op": "status", "task": task})
        assert status["result"]["state"] == "error"
        assert status["result"]["error"].startswith("MemoryError")
        line_service.close()

    def test_frontend_latency_table_keeps_only_known_ops(self, line_service):
        frontend = ServiceFrontend(line_service)
        respond = frontend.respond_for("client")

        async def body():
            for i in range(1000):
                assert (await respond({"op": f"junk-{i}", "id": i}))["ok"] is False
            return await respond({"op": "stats"})

        stats = asyncio.run(body())["result"]
        assert set(stats["frontend"]["latency"]) <= set(OPS)
        assert "stats" in stats["frontend"]["latency"]

    def test_one_bad_request_does_not_poison_the_service(self, line_service):
        handle_request(line_service, {"op": "reach", "source": "a"})
        good = handle_request(
            line_service,
            {"op": "reach", "source": "a", "target": "c", "start": 0, "horizon": 10},
        )
        assert good["ok"] is True

    def test_ping_and_stats(self, line_service):
        assert handle_request(line_service, {"op": "ping"})["result"] == "pong"
        stats = handle_request(line_service, {"op": "stats"})["result"]
        assert stats["graph"]["nodes"] == 3


class TestScheduleFields:
    """The ``presence``, ``latency`` and ``semantics`` field kinds: the
    core decoders, with the protocol's null defaults, and every refusal
    named by its op and field."""

    @pytest.mark.parametrize(
        "presence",
        [
            always(),
            never(),
            periodic_presence([0, 2], 4),
            interval_presence([(0, 3), (7, 9)]),
            at_times([1, 4, 5]),
        ],
    )
    def test_presence_round_trip_preserves_the_schedule(self, presence):
        spec = json.loads(json.dumps(encode_presence(presence)))
        _op, fields = parse_request("set_presence", {"key": "ab", "presence": spec})
        for t in range(0, 16):
            assert fields["presence"](t) == presence(t)

    def test_at_spec_crosses_the_protocol(self):
        spec = {"kind": "at", "times": [1, 4, 5]}
        _op, fields = parse_request("set_presence", {"key": "ab", "presence": spec})
        assert [t for t in range(8) if fields["presence"](t)] == [1, 4, 5]

    def test_none_means_always(self):
        _op, fields = parse_request("set_presence", {"key": "ab", "presence": None})
        assert fields["presence"](123)
        _op, fields = parse_request("add_edge", {"source": "a", "target": "c"})
        assert fields["presence"] is always()

    @pytest.mark.parametrize(
        "spec",
        [
            {"kind": "quantum"},
            {"pattern": [0]},
            "periodic",
            {"kind": "periodic", "pattern": [0]},  # missing period
            {"kind": "periodic", "pattern": [0], "period": 0},
        ],
    )
    def test_malformed_presence_specs_rejected(self, spec):
        with pytest.raises(ServiceError, match="^op 'set_presence' field 'presence': "):
            parse_request("set_presence", {"key": "ab", "presence": spec})

    def test_constant_latency_round_trip(self):
        spec = json.loads(json.dumps(encode_latency(constant_latency(3))))
        _op, fields = parse_request(
            "add_edge", {"source": "a", "target": "c", "latency": spec}
        )
        assert fields["latency"](7) == 3

    def test_none_means_unit(self):
        _op, fields = parse_request("add_edge", {"source": "a", "target": "c"})
        assert fields["latency"](0) == 1

    @pytest.mark.parametrize(
        "latency", [affine_latency(1, 1), table_latency({0: 2}, default=1)]
    )
    def test_only_constant_latencies_cross_the_protocol(self, latency):
        request = {"source": "a", "target": "c", "latency": encode_latency(latency)}
        with pytest.raises(ServiceError, match="only constant latencies"):
            parse_request("add_edge", request)

    @pytest.mark.parametrize(
        "spec", [{"kind": "affine"}, {"value": 2}, {"kind": "constant", "value": 0}]
    )
    def test_malformed_latency_specs_rejected(self, spec):
        request = {"source": "a", "target": "c", "latency": spec}
        with pytest.raises(ServiceError, match="^op 'add_edge' field 'latency': "):
            parse_request("add_edge", request)

    @pytest.mark.parametrize(
        "semantics", [WAIT, NO_WAIT, bounded_wait(0), bounded_wait(3)]
    )
    def test_semantics_strings_round_trip(self, semantics):
        request = {"start": 0, "end": 4, "semantics": str(semantics)}
        _op, fields = parse_request("growth", request)
        assert fields["semantics"] == semantics

    @pytest.mark.parametrize(
        "text", ["perhaps", "wait[x]", "wait[", "WAIT", "wait[-1]", "wait[]"]
    )
    def test_unknown_semantics_strings_rejected(self, text):
        request = {"start": 0, "end": 4, "semantics": text}
        with pytest.raises(ServiceError, match="^op 'growth' field 'semantics': "):
            parse_request("growth", request)


@pytest.mark.slow
class TestShardsKnob:
    """TVGService(executor=ProcessShards(k)) runs cache-miss sweeps on
    the sharded path; every answer stays identical (slow: spawns
    workers)."""

    def _graph(self):
        from repro.core.generators import periodic_random_tvg

        return periodic_random_tvg(10, period=4, density=0.25, seed=4)

    def test_sharded_service_answers_match_serial(self):
        serial = TVGService(self._graph(), window=(0, 12))
        sharded = TVGService(
            self._graph(), window=(0, 12), executor=ProcessShards(2)
        )
        nodes = list(serial.graph.nodes)
        for semantics in (NO_WAIT, WAIT):
            for target in nodes[1:4]:
                assert sharded.arrival(nodes[0], target, 0, 12, semantics) == (
                    serial.arrival(nodes[0], target, 0, 12, semantics)
                )
            assert sharded.growth(0, 12, semantics) == serial.growth(0, 12, semantics)
        assert sharded.classify(0, 12) == serial.classify(0, 12)

    def test_mutation_invalidates_sharded_cache_too(self):
        service = TVGService(self._graph(), window=(0, 12), executor=ProcessShards(2))
        nodes = list(service.graph.nodes)
        service.growth(0, 12, WAIT)  # populate the cache
        version_before = service.graph.version
        service.add_edge(nodes[0], nodes[1], presence=periodic_presence([0], 2))
        assert service.graph.version != version_before  # key space moved on
        after = service.growth(0, 12, WAIT)
        # Fresh, not stale: the post-mutation answer must match a fresh
        # interpretive computation on the mutated graph.
        assert after == reachability_growth(service.graph, 0, 12, WAIT)
