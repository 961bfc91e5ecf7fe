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

from collections import OrderedDict
from typing import Any, Hashable

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
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.purged = 0

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
        elif len(self._entries) >= self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1
        self._entries[key] = value

    def purge_stale(self, current_version: int) -> int:
        """Evict every entry whose version is not ``current_version``;
        returns how many went.

        ``purged`` counts only these staleness purges and ``evictions``
        only LRU-pressure drops from :meth:`put`, so an operator can
        tell write-churn invalidation from capacity pressure.  Entries
        at the current version are untouched — invalidation is exact,
        not a flush.
        """
        stale = [key for key in self._entries if key[0] != current_version]
        for key in stale:
            del self._entries[key]
        self.purged += len(stale)
        return len(stale)

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
            "hit_rate": self.hit_rate,
        }

    def __repr__(self) -> str:
        return (
            f"QueryCache({len(self._entries)}/{self.max_entries} entries, "
            f"{self.hits} hits, {self.misses} misses)"
        )
