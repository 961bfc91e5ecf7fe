"""The versioned LRU result cache of the query service.

Entries are keyed by ``(version, query)`` where ``query`` is any
hashable description of a computation (window, semantics, query kind
and arguments) and ``version`` is the graph's mutation counter at
compute time.  Because the version is part of the key, a mutation never
*corrupts* the cache — it merely strands the old entries; calling
:meth:`QueryCache.purge_stale` after a mutation evicts exactly those
stranded (stale) entries and nothing else.  Capacity is bounded by
plain LRU on top.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import OrderedDict
from typing import Any, Callable, Hashable

#: Sentinel returned by :meth:`QueryCache.get` on a miss, so ``None``
#: stays a cacheable value (e.g. "no journey arrives").
MISS: Any = object()


class QueryCache:
    """An LRU cache of query results keyed by graph version.

    ``max_entries`` bounds the total number of live entries; the least
    recently *used* entry is evicted first.  All counters are
    monotone, exposed through :meth:`stats` for the service's
    observability endpoint.
    """

    def __init__(self, max_entries: int = 256) -> None:
        if max_entries <= 0:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        self.max_entries = max_entries
        self._entries: OrderedDict[tuple[int, Hashable], Any] = OrderedDict()
        # Per-query sorted version lists, kept in lockstep with
        # ``_entries`` — :meth:`ancestor` is a bisect over the versions
        # of *that* query, not a scan of every cached entry.
        self._versions: dict[Hashable, list[int]] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.purged = 0
        self.retained = 0

    def get(self, version: int, query: Hashable) -> Any:
        """The cached result, or :data:`MISS`; a hit refreshes recency."""
        key = (version, query)
        if key not in self._entries:
            self.misses += 1
            return MISS
        self.hits += 1
        self._entries.move_to_end(key)
        return self._entries[key]

    def put(self, version: int, query: Hashable, value: Any) -> None:
        """Store a result, evicting the LRU entry when full."""
        key = (version, query)
        if key in self._entries:
            self._entries.move_to_end(key)
        else:
            if len(self._entries) >= self.max_entries:
                evicted, _value = self._entries.popitem(last=False)
                self._index_discard(evicted)
                self.evictions += 1
            self._index_add(key)
        self._entries[key] = value

    def purge_stale(
        self,
        current_version: int,
        retain: Callable[[Hashable], bool] | None = None,
    ) -> int:
        """Evict stale entries (version != ``current_version``), except
        the newest one per query that ``retain`` vouches for.

        ``retain`` is a predicate on the *query* part of the key; of
        the stale entries it accepts, the newest per query stays in the
        cache as incremental seed material (the service keeps its last
        arrival matrix this way, so a later query can patch instead of
        re-sweeping).  Older ones go: versions only grow, so
        :meth:`ancestor` can never hand them back again.  Returns how
        many entries were purged.  Three separately monotone counters keep
        the observability honest: ``purged`` counts only
        staleness-purged entries, ``retained`` counts stale entries a
        retain predicate kept (once per purge pass they survive), and
        ``evictions`` counts only LRU-pressure drops from :meth:`put` —
        the three never mix.  Entries at the current version are
        untouched — invalidation is exact, not a flush.
        """
        stale = [key for key in self._entries if key[0] != current_version]
        newest: dict[Hashable, int] = {}
        if retain is not None:
            for version, query in stale:
                if retain(query):
                    newest[query] = max(version, newest.get(query, version))
        kept = 0
        for key in stale:
            if newest.get(key[1]) == key[0]:
                kept += 1
                continue
            del self._entries[key]
            self._index_discard(key)
        self.purged += len(stale) - kept
        self.retained += kept
        return len(stale) - kept

    def ancestor(self, query: Hashable, version: int) -> tuple[int, Any] | None:
        """The newest cached ``(ancestor_version, value)`` of ``query``
        strictly below ``version``, or None.

        The incremental sweep's entry point: a hit hands back the most
        recent surviving matrix for the same query so the caller can
        ask the graph for the delta chain since.  One bisect over the
        per-query version index — O(log versions of *that* query), not
        a scan of every cached entry.  Refreshes the found entry's LRU
        recency (it is about to be useful) but moves no hit/miss
        counters — it is not a result lookup.
        """
        versions = self._versions.get(query)
        if not versions:
            return None
        i = bisect_left(versions, version)
        if i == 0:
            return None
        found = versions[i - 1]
        key = (found, query)
        self._entries.move_to_end(key)
        return found, self._entries[key]

    # -- the per-query version index -------------------------------------------

    def _index_add(self, key: tuple[int, Hashable]) -> None:
        version, query = key
        versions = self._versions.setdefault(query, [])
        i = bisect_left(versions, version)
        if i == len(versions) or versions[i] != version:
            versions.insert(i, version)

    def _index_discard(self, key: tuple[int, Hashable]) -> None:
        version, query = key
        versions = self._versions.get(query)
        if versions is None:
            return
        i = bisect_left(versions, version)
        if i < len(versions) and versions[i] == version:
            versions.pop(i)
            if not versions:
                del self._versions[query]

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple[int, Hashable]) -> bool:
        """Membership on the same ``(version, query)`` pair ``get``/
        ``put`` take — no recency refresh, no counter movement."""
        if not isinstance(key, tuple) or len(key) != 2:
            raise TypeError(
                "QueryCache membership takes a (version, query) pair, "
                f"got {key!r}"
            )
        return key in self._entries

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from cache (0.0 when never used)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict[str, int | float]:
        """A JSON-able snapshot of the cache counters."""
        return {
            "entries": len(self._entries),
            "max_entries": self.max_entries,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "purged": self.purged,
            "retained": self.retained,
            "hit_rate": self.hit_rate,
        }

    def __repr__(self) -> str:
        return (
            f"QueryCache({len(self._entries)}/{self.max_entries} entries, "
            f"{self.hits} hits, {self.misses} misses)"
        )
