"""Query-serving caches: query results and decoded columns.

The index structures are immutable once built, so serving many queries
is a caching problem, not a concurrency problem.  `QueryCache` is the
**result cache** `XMLDatabase` wires in, keyed by ``(terms, semantics,
algorithm, k)``; a hit skips level evaluation entirely.  A term's
postings are not cached here: the index pins them itself
(`ColumnarIndex.term_postings`).

An independent cache serves the disk-backed index:
`DecodedColumnCache` is a byte-budget LRU of decoded columns keyed by
``(namespace, term, level)``, wired into `LazyColumnarPostings` so hot
terms skip per-column decompression on repeat queries while cold
decoded arrays get evicted instead of pinned forever.

Both are bounded LRUs with hit/miss/eviction counters; every operation
takes the cache lock, so a `QueryCache` can be shared by the threads
the daemon's ``--workers 0`` path evaluates on.  Result entries are
immutable (`ResultSet`s, finished response payloads), so a hit returns
the stored object itself.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

_MISSING = object()


@dataclass
class CacheStats:
    """Counters of one LRU cache since construction (or `clear`)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions}


class LRUCache:
    """A bounded, thread-safe least-recently-used map.

    ``capacity <= 0`` disables storage: every `get` is a miss and `put`
    is a no-op, which keeps the calling code branch-free.
    """

    def __init__(self, capacity: int):
        self.capacity = int(capacity)
        self.stats = CacheStats()
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: Hashable, default: Any = None) -> Any:
        with self._lock:
            value = self._data.get(key, _MISSING)
            if value is _MISSING:
                self.stats.misses += 1
                return default
            self._data.move_to_end(key)
            self.stats.hits += 1
            return value

    def put(self, key: Hashable, value: Any) -> None:
        if self.capacity <= 0:
            return
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
            self._data[key] = value
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)
                self.stats.evictions += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._data

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
            self.stats = CacheStats()

    def remove(self, key: Hashable) -> bool:
        """Drop one entry if present.  Not counted as an eviction --
        evictions measure capacity pressure, and explicit invalidation
        is a correctness action, not pressure."""
        with self._lock:
            return self._data.pop(key, _MISSING) is not _MISSING

    def keys(self) -> List[Hashable]:
        """Snapshot of the current keys (LRU order, oldest first)."""
        with self._lock:
            return list(self._data.keys())


class DecodedColumnCache:
    """A byte-budget LRU of *decoded* columns, shared across the
    disk-backed postings of one database.

    The disk-backed index otherwise caches every decoded column forever
    inside the postings object that produced it -- correct, but
    unbounded.  This cache replaces that per-postings dict with one
    bounded pool: entries are `(namespace, term, level) -> Column`, the
    budget counts the decoded arrays' ``nbytes``, and eviction is
    least-recently-used.  Hot terms keep skipping decompression on
    repeat queries; cold terms stop pinning their decoded columns.

    ``capacity_bytes <= 0`` disables storage (every `get` misses, `put`
    is a no-op).  A single oversized column (larger than the whole
    budget) is never admitted.  All operations take the cache lock, so
    one instance can serve concurrent daemon workers.
    """

    def __init__(self, capacity_bytes: int = 32 * 1024 * 1024,
                 metrics=None):
        self.capacity_bytes = int(capacity_bytes)
        self.current_bytes = 0
        self.stats = CacheStats()
        self._data: "OrderedDict[Hashable, Tuple[Any, int]]" = OrderedDict()
        self._lock = threading.Lock()
        self.metrics = None
        if metrics is not None:
            self.bind_metrics(metrics)

    def bind_metrics(self, metrics) -> None:
        """Publish lookup counters / occupancy gauges into `metrics`."""
        self.metrics = metrics
        self._hit_counter = metrics.counter(
            "repro_cache_requests_total",
            {"cache": "decoded", "outcome": "hit"})
        self._miss_counter = metrics.counter(
            "repro_cache_requests_total",
            {"cache": "decoded", "outcome": "miss"})
        metrics.gauge("repro_cache_hit_ratio",
                      {"cache": "decoded"}).set_fn(self.hit_ratio)

    def hit_ratio(self) -> float:
        total = self.stats.hits + self.stats.misses
        return self.stats.hits / total if total else 0.0

    def get(self, key: Hashable):
        """The cached `Column` for `key`, or ``None`` on a miss."""
        with self._lock:
            entry = self._data.get(key, _MISSING)
            if entry is _MISSING:
                self.stats.misses += 1
                if self.metrics is not None:
                    self._miss_counter.inc()
                return None
            self._data.move_to_end(key)
            self.stats.hits += 1
            if self.metrics is not None:
                self._hit_counter.inc()
            return entry[0]

    def put(self, key: Hashable, column, nbytes: Optional[int] = None
            ) -> None:
        """Admit `column` at a cost of `nbytes` (defaults to the sum of
        its decoded arrays' ``nbytes``), evicting LRU entries until the
        budget holds."""
        if self.capacity_bytes <= 0:
            return
        if nbytes is None:
            nbytes = int(column.values.nbytes) + int(column.seq_idx.nbytes)
        nbytes = int(nbytes)
        if nbytes > self.capacity_bytes:
            return
        with self._lock:
            old = self._data.pop(key, None)
            if old is not None:
                self.current_bytes -= old[1]
            self._data[key] = (column, nbytes)
            self.current_bytes += nbytes
            while self.current_bytes > self.capacity_bytes and self._data:
                _, (_, dropped) = self._data.popitem(last=False)
                self.current_bytes -= dropped
                self.stats.evictions += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
            self.current_bytes = 0
            self.stats = CacheStats()

    def as_dict(self) -> Dict[str, int]:
        snapshot = self.stats.as_dict()
        snapshot["bytes"] = self.current_bytes
        snapshot["capacity_bytes"] = self.capacity_bytes
        snapshot["entries"] = len(self)
        return snapshot


ResultKey = Tuple[Tuple[str, ...], str, str, Optional[int]]


def result_key(terms: Sequence[str], semantics: str, algorithm: str,
               k: Optional[int] = None) -> ResultKey:
    """Canonical result-cache key; `None` k marks a complete evaluation."""
    return (tuple(terms), semantics, algorithm, k)


class QueryCache:
    """The result cache served to `XMLDatabase`.

    Parameters
    ----------
    result_capacity:
        Max cached query results (LRU over `result_key` entries).
    metrics:
        Optional `repro.obs.MetricsRegistry`; when given, every lookup
        publishes ``repro_cache_requests_total{cache="results",
        outcome=...}`` counters next to the local `CacheStats`, so a
        process-wide snapshot sees the hit ratio without holding the
        cache object.
    """

    def __init__(self, result_capacity: int = 1024, metrics=None):
        self.results = LRUCache(result_capacity)
        self.metrics = None
        if metrics is not None:
            self.bind_metrics(metrics)

    def bind_metrics(self, metrics) -> None:
        """Publish lookup counters into `metrics` from now on."""
        self.metrics = metrics
        self._results_hit = metrics.counter(
            "repro_cache_requests_total",
            {"cache": "results", "outcome": "hit"})
        self._results_miss = metrics.counter(
            "repro_cache_requests_total",
            {"cache": "results", "outcome": "miss"})
        metrics.gauge("repro_cache_hit_ratio",
                      {"cache": "results"}).set_fn(self.result_hit_ratio)

    def result_hit_ratio(self) -> float:
        stats = self.results.stats
        total = stats.hits + stats.misses
        return stats.hits / total if total else 0.0

    def get_results(self, key: ResultKey):
        """The cached answer for `key` -- the stored object itself, not
        a copy: entries are immutable (`ResultSet`s, finished response
        payloads) -- or ``None`` on miss."""
        cached = self.results.get(key, _MISSING)
        if cached is _MISSING:
            if self.metrics is not None:
                self._results_miss.inc()
            return None
        if self.metrics is not None:
            self._results_hit.inc()
        return cached

    def put_results(self, key: ResultKey, results,
                    partial: bool = False) -> None:
        """Store an answer -- unless it is ``partial``.

        A deadline-truncated result set is valid only for the budget
        that produced it; caching it would serve degraded answers to
        unbudgeted callers, so partial entries are dropped silently.
        """
        if partial:
            return
        self.results.put(key, results)

    def clear(self) -> None:
        """Drop every entry and restart the local stats.

        Metric consistency contract: the process-wide
        ``repro_cache_requests_total`` counters are *monotone* and keep
        counting across a clear (Prometheus counters never go down);
        the ``repro_cache_hit_ratio`` gauges are derived through
        `set_fn` hooks that read the live `CacheStats` at snapshot
        time, so they restart from 0 with the fresh stats instead of
        reporting the dead cache's ratio forever.
        """
        self.results.clear()

    def invalidate(self, term: str) -> int:
        """Drop every cached result whose query used `term`.  Returns
        the number of entries dropped.  The daemon's index-reload hook:
        when one term's postings change, unrelated cached results
        survive.
        """
        dropped = 0
        for key in self.results.keys():
            terms = key[0] if isinstance(key, tuple) and key else ()
            if term in terms:
                dropped += 1 if self.results.remove(key) else 0
        return dropped

    def stats(self) -> Dict[str, Dict[str, int]]:
        return {"results": self.results.stats.as_dict()}
