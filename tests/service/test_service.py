"""Unit tests for TVGService and the synchronous request dispatcher."""

import pytest

from repro.analysis.classes import classify
from repro.analysis.evolution import reachability_growth
from repro.core.builders import TVGBuilder
from repro.core.generators import periodic_random_tvg
from repro.core.parallel import ProcessShards
from repro.core.presence import never, periodic_presence
from repro.core.semantics import NO_WAIT, WAIT
from repro.core.traversal import earliest_arrivals
from repro.errors import ServiceError
from repro.service.server import handle_request
from repro.service.service import TVGService


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
        original = line_service.engine.arrival_matrix

        def counting(*args, **kwargs):
            nonlocal calls
            calls += 1
            return original(*args, **kwargs)

        line_service.engine.arrival_matrix = counting
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
        # Derived entries (growth curves) are purged; the stale
        # arrival_matrix entry survives as incremental seed material.
        assert line_service.cache.purged > 0
        assert line_service.cache.retained > 0
        for _version, query in line_service.cache._entries:
            assert query[0] == "arrival_matrix"

    def test_off_mode_mutation_purges_everything(self):
        graph = (
            TVGBuilder(name="line")
            .lifetime(0, 10)
            .edge("a", "b", present=[(0, 2)], key="ab")
            .edge("b", "c", present=[(5, 7)], key="bc")
            .build()
        )
        service = TVGService(graph, incremental="off")
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
        """A ``retain`` predicate only spares a seed from *staleness*
        purges — plain LRU pressure from unrelated puts can still evict
        it.  The incremental path must then fall back to a full sweep
        (never a KeyError, never a stale answer) with coherent counters.
        """
        def build():
            return (
                TVGBuilder(name="line")
                .lifetime(0, 10)
                .edge("a", "b", present=[(0, 2)], key="ab")
                .edge("b", "c", present=[(5, 7)], key="bc")
                .build()
            )

        service = TVGService(build(), cache_size=2, incremental="force")
        service.arrival("a", "c", 0, 10, WAIT)  # seeds the v0 matrix
        assert service.full_sweeps == 1
        service.add_edge("c", "a", key="ca")  # seed retained across purge
        assert service.cache.retained == 1
        # Unrelated windows churn the 2-slot cache; the second put must
        # LRU-evict the retained seed (nothing refreshed it since).
        service.arrival("a", "c", 0, 8, WAIT)
        service.arrival("a", "c", 0, 9, WAIT)
        assert service.cache.evictions >= 1
        assert service.cache.ancestor(
            ("arrival_matrix", 0, 10, str(WAIT)), service.graph.version
        ) is None
        sweeps_before = service.full_sweeps
        answer = service.arrival("a", "c", 0, 10, WAIT)
        assert service.full_sweeps == sweeps_before + 1
        assert service.incremental_sweeps == 0  # no ghost seed was patched
        shadow = build()
        shadow.add_edge("c", "a", key="ca")
        oracle = earliest_arrivals(shadow, "a", 0, WAIT, horizon=10)
        assert answer == oracle.get("c")

    def test_surviving_seed_is_patched_not_reswept(self):
        """The control for the eviction case above: without LRU churn
        the same query patches the retained seed incrementally."""
        graph = (
            TVGBuilder(name="line")
            .lifetime(0, 10)
            .edge("a", "b", present=[(0, 2)], key="ab")
            .edge("b", "c", present=[(5, 7)], key="bc")
            .build()
        )
        service = TVGService(graph, cache_size=2, incremental="force")
        service.arrival("a", "c", 0, 10, WAIT)
        service.add_edge("c", "a", key="ca")
        service.arrival("a", "c", 0, 10, WAIT)
        assert service.incremental_sweeps == 1
        assert service.full_sweeps == 1

    def test_churn_keeps_at_most_two_matrices_per_query(self):
        """Each mutation + miss cycle leaves the new matrix and one seed
        (the newest stale one, all ``ancestor`` needs) — not one more
        retained matrix per cycle — and answers stay exact."""
        graph = periodic_random_tvg(12, period=4, density=0.3, seed=5)
        service = TVGService(graph, incremental="force")
        service.growth(0, 12, WAIT)
        keys = [edge.key for edge in graph.edges]
        query = ("arrival_matrix", 0, 12, str(WAIT))
        for cycle in range(8):
            service.set_presence(
                keys[cycle * 5 % len(keys)], periodic_presence([cycle % 4], 4)
            )
            curve = service.growth(0, 12, WAIT)
            cached = [v for v, q in service.cache._entries if q == query]
            assert len(cached) <= 2
            assert curve == reachability_growth(graph, 0, 12, WAIT)
        assert service.incremental_sweeps == 8

    def test_stats_shape(self, line_service):
        line_service.growth(0, 10, WAIT)
        line_service.add_edge("c", "a", key="ca")
        stats = line_service.stats()
        assert stats["graph"]["edges"] == 3
        assert stats["queries_served"] == 1
        assert stats["mutations_applied"] == 1
        assert set(stats["cache"]) >= {"entries", "hits", "misses", "purged"}


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
        ],
    )
    def test_bad_requests_become_error_responses(self, line_service, request_dict):
        response = handle_request(line_service, request_dict)
        assert response["ok"] is False
        assert response["error"]

    @pytest.mark.parametrize("submitted", [False, True], ids=["direct", "submit"])
    @pytest.mark.parametrize(
        "value", [True, False, 8.5, "9", None, [1], {"t": 1}], ids=repr
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
