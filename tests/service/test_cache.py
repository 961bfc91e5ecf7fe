"""Unit tests for the versioned LRU query cache."""

from collections import OrderedDict

import pytest

from repro.service.cache import MISS, QueryCache


class TestBasics:
    def test_miss_then_hit(self):
        cache = QueryCache()
        assert cache.get(0, "q") is MISS
        cache.put(0, "q", 42)
        assert cache.get(0, "q") == 42
        assert (cache.hits, cache.misses) == (1, 1)

    def test_none_is_a_cacheable_value(self):
        cache = QueryCache()
        cache.put(0, "unreachable-pair", None)
        assert cache.get(0, "unreachable-pair") is None
        assert cache.hits == 1

    def test_versions_partition_the_keyspace(self):
        cache = QueryCache()
        cache.put(0, "q", "old")
        cache.put(1, "q", "new")
        assert cache.get(0, "q") == "old"
        assert cache.get(1, "q") == "new"

    def test_put_overwrites(self):
        cache = QueryCache()
        cache.put(0, "q", 1)
        cache.put(0, "q", 2)
        assert cache.get(0, "q") == 2
        assert len(cache) == 1

    def test_max_entries_must_be_positive(self):
        with pytest.raises(ValueError):
            QueryCache(max_entries=0)


class TestLRU:
    def test_capacity_evicts_least_recently_used(self):
        cache = QueryCache(max_entries=2)
        cache.put(0, "a", 1)
        cache.put(0, "b", 2)
        assert cache.get(0, "a") == 1  # refresh 'a'; 'b' is now LRU
        cache.put(0, "c", 3)
        assert cache.get(0, "b") is MISS
        assert cache.get(0, "a") == 1
        assert cache.get(0, "c") == 3
        assert cache.evictions == 1

    def test_len_never_exceeds_capacity(self):
        cache = QueryCache(max_entries=3)
        for i in range(10):
            cache.put(0, f"q{i}", i)
            assert len(cache) <= 3

    def test_agrees_with_a_reference_model_under_churn(self):
        """Hits, misses, evictions and purges in a mixed workload leave
        exactly the entries, recency order and counters that a
        brute-force ordered-dict model predicts."""
        cache = QueryCache(max_entries=3)
        model: OrderedDict = OrderedDict()  # least recently used first
        counts = {"hits": 0, "misses": 0, "evictions": 0, "purged": 0}
        for step in range(60):
            version = step // 7
            if step % 7 == 0:
                stale = [key for key in model if key[0] != version]
                for key in stale:
                    del model[key]
                counts["purged"] += len(stale)
                assert cache.purge_stale(version) == len(stale)
            key = (version, f"q{step * step % 7}")
            if key in model:
                counts["hits"] += 1
                model.move_to_end(key)
                assert cache.get(*key) == model[key]
            else:
                counts["misses"] += 1
                assert cache.get(*key) is MISS
                if len(model) == 3:
                    model.popitem(last=False)
                    counts["evictions"] += 1
                model[key] = step
                cache.put(*key, step)
            assert list(cache._entries.items()) == list(model.items())
        assert {name: cache.stats()[name] for name in counts} == counts
        assert all(counts.values())


class TestPurgeStale:
    def test_purges_exactly_the_stale_entries(self):
        cache = QueryCache()
        cache.put(0, "a", 1)
        cache.put(0, "b", 2)
        cache.put(1, "c", 3)
        assert cache.purge_stale(1) == 2
        assert cache.get(1, "c") == 3
        assert cache.get(0, "a") is MISS
        assert cache.purged == 2

    def test_purge_with_nothing_stale_is_a_noop(self):
        cache = QueryCache()
        cache.put(5, "a", 1)
        assert cache.purge_stale(5) == 0
        assert cache.get(5, "a") == 1

    def test_no_query_kind_survives_a_purge(self):
        """The cache keeps no seeds: a stale arrival matrix goes like
        any other entry."""
        cache = QueryCache()
        cache.put(0, ("arrival_matrix", 0, 10), "matrix")
        cache.put(0, ("growth", 0, 10), "curve")
        cache.put(1, ("growth", 0, 10), "fresh")
        assert cache.purge_stale(1) == 2
        assert (0, ("arrival_matrix", 0, 10)) not in cache
        assert (1, ("growth", 0, 10)) in cache
        assert len(cache) == 1

    def test_repeated_purges_count_an_overwritten_entry_once(self):
        cache = QueryCache()
        cache.put(1, "q", "first")
        cache.put(1, "q", "second")
        for version in (2, 3, 4):
            cache.purge_stale(version)
        assert len(cache) == 0
        assert cache.purged == 1


class TestObservabilitySeparation:
    """Purges and LRU evictions must be separately visible — an
    operator watching ``stats()`` can tell write-churn invalidation
    from capacity pressure."""

    def test_purge_does_not_count_as_eviction(self):
        cache = QueryCache()
        cache.put(0, "a", 1)
        cache.purge_stale(1)
        assert cache.purged == 1 and cache.evictions == 0

    def test_eviction_does_not_count_as_purge(self):
        cache = QueryCache(max_entries=1)
        cache.put(0, "a", 1)
        cache.put(0, "b", 2)
        assert cache.evictions == 1 and cache.purged == 0

    def test_stats_exposes_all_three_counters(self):
        cache = QueryCache(max_entries=1)
        cache.put(0, "a", 1)
        cache.put(0, "b", 2)  # evicts a
        cache.purge_stale(1)  # purges b
        cache.put(1, "c", 3)
        cache.purge_stale(1)  # c is current: nothing goes
        stats = cache.stats()
        assert stats["evictions"] == 1
        assert stats["purged"] == 1
        assert stats["entries"] == 1


class TestContains:
    def test_membership_takes_the_same_pair_as_get_and_put(self):
        cache = QueryCache()
        cache.put(3, ("arrival_matrix", 0), "m")
        assert (3, ("arrival_matrix", 0)) in cache
        assert (2, ("arrival_matrix", 0)) not in cache
        assert (3, ("growth", 0)) not in cache

    def test_membership_moves_no_counters_and_no_recency(self):
        cache = QueryCache(max_entries=2)
        cache.put(0, "a", 1)
        cache.put(0, "b", 2)
        assert (0, "a") in cache  # must NOT refresh 'a'
        assert cache.hits == 0 and cache.misses == 0
        cache.put(0, "c", 3)  # evicts 'a' (still LRU)
        assert (0, "a") not in cache

    def test_malformed_membership_key_is_a_type_error(self):
        cache = QueryCache()
        with pytest.raises(TypeError):
            "bare-query" in cache
        with pytest.raises(TypeError):
            (1, "q", "extra") in cache


class TestStats:
    def test_stats_snapshot(self):
        cache = QueryCache(max_entries=4)
        cache.get(0, "q")
        cache.put(0, "q", 1)
        cache.get(0, "q")
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["max_entries"] == 4
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == 0.5

    def test_hit_rate_without_traffic(self):
        assert QueryCache().hit_rate == 0.0
