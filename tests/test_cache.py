"""Tests for the query-serving cache layer (`repro.cache`) and
`XMLDatabase.search_batch`."""

import pytest

from repro import XMLDatabase
from repro.cache import LRUCache, QueryCache, result_key
from tests.conftest import on_threads


def deweys(results):
    return [r.node.dewey for r in results]


class TestLRUCache:
    def test_hit_miss_counters(self):
        cache = LRUCache(2)
        assert cache.get("a") is None
        assert cache.stats.misses == 1
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.stats.hits == 1

    def test_eviction_order_and_counter(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")          # refresh "a": "b" is now LRU
        cache.put("c", 3)
        assert cache.stats.evictions == 1
        assert "b" not in cache
        assert cache.get("a") == 1
        assert cache.get("c") == 3

    def test_zero_capacity_disables_storage(self):
        cache = LRUCache(0)
        cache.put("a", 1)
        assert len(cache) == 0
        assert cache.get("a") is None

    def test_overwrite_same_key(self):
        cache = LRUCache(1)
        cache.put("a", 1)
        cache.put("a", 2)
        assert cache.get("a") == 2
        assert cache.stats.evictions == 0

    def test_clear_resets(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.hits == 0


class TestQueryCacheWiring:
    def test_result_cache_hit_skips_evaluation(self, small_db):
        first = small_db.search("xml data")
        stats = small_db.cache.results.stats
        hits_before = stats.hits
        second = small_db.search("xml data")
        assert stats.hits == hits_before + 1
        assert deweys(first) == deweys(second)

    def test_use_cache_false_bypasses(self, small_db):
        small_db.search("xml data")
        stats = small_db.cache.results.stats
        hits_before = stats.hits
        small_db.search("xml data", use_cache=False)
        assert stats.hits == hits_before

    def test_cache_hit_returns_the_stored_object(self, small_db):
        """No copy on either side of the cache: a hit hands back the
        very `ResultSet` the miss stored, and that is safe because a
        caller cannot change it."""
        first = small_db.search("xml data")
        assert small_db.search("xml data") is first
        assert not hasattr(first, "clear")
        with pytest.raises(ValueError):
            first.scores[0] = 99.0
        with pytest.raises(TypeError):
            first[0] = first[1]

    def test_open_forwards_cache_knobs(self, small_db, tmp_path):
        path = str(tmp_path / "db")
        small_db.save(path)
        shared = QueryCache(result_capacity=4)
        db = XMLDatabase.open(path, cache=shared)
        assert db.cache is shared
        disabled = XMLDatabase.open(path, result_cache_size=0)
        first = disabled.search("xml data")
        second = disabled.search("xml data")
        assert deweys(first) == deweys(second)
        assert len(disabled.cache.results) == 0

    def test_correctness_after_eviction(self):
        db = XMLDatabase.from_xml_text(
            "<r><a>xml data</a><b>xml</b><c>data</c></r>",
            result_cache_size=1)
        expected_pair = deweys(db.search("xml data", use_cache=False))
        expected_xml = deweys(db.search("xml", use_cache=False))
        for _ in range(3):  # alternate: each query evicts the other
            assert deweys(db.search("xml data")) == expected_pair
            assert deweys(db.search("xml")) == expected_xml
        assert db.cache.results.stats.evictions > 0

    def test_semantics_and_algorithm_keyed_separately(self, fig1_db):
        elca = fig1_db.search("xml data", semantics="elca")
        slca = fig1_db.search("xml data", semantics="slca")
        assert deweys(fig1_db.search("xml data", semantics="slca")) == \
            deweys(slca)
        # In the Figure-1 tree the root is an ELCA but not an SLCA, so
        # the two semantics genuinely differ -- a shared cache key would
        # have returned the wrong set above.
        assert deweys(elca) != deweys(slca)

    def test_refresh_clears_cache(self, small_db):
        small_db.search("xml data")
        assert len(small_db.cache.results) > 0
        small_db.refresh()
        assert len(small_db.cache.results) == 0

    def test_cache_stats_shape(self, small_db):
        report = small_db.cache_stats()
        assert set(report) == {"results"}
        assert set(report["results"]) == {"hits", "misses", "evictions"}

    def test_query_postings_order_matches_index(self, small_db, tmp_path):
        """The index is the only thing between a term and its postings:
        an opened database orders them as the in-memory index does and
        hands out the same objects on every fetch."""
        path = str(tmp_path / "db")
        small_db.save(path)
        opened = XMLDatabase.open(path).columnar_index
        direct = small_db.columnar_index.query_postings(["data", "xml"])
        fetched = opened.query_postings(["data", "xml"])
        assert [p.term for p in fetched] == [p.term for p in direct]
        again = opened.query_postings(["data", "xml"])
        assert [id(p) for p in again] == [id(p) for p in fetched]


class TestSearchBatch:
    @pytest.mark.parametrize("threads", [None, 4])
    def test_batch_matches_sequential_search(self, small_db, threads):
        queries = ["xml data", "data", "xml keyword", "zzz missing"]
        expected = [deweys(small_db.search(q, use_cache=False))
                    for q in queries]
        if threads is None:
            got = small_db.search_batch(queries, use_cache=False)
        else:
            got = on_threads(
                threads, lambda q: small_db.search(q, use_cache=False),
                queries)
        assert [deweys(rs) for rs in got] == expected

    @pytest.mark.parametrize("threads", [None, 4])
    def test_batch_matches_sequential_topk(self, small_db, threads):
        queries = ["xml data", "data xml"]
        expected = [deweys(small_db.search_topk(q, k=3).results)
                    for q in queries]
        if threads is None:
            got = small_db.search_batch(queries, k=3, use_cache=False)
        else:
            got = on_threads(
                threads, lambda q: small_db.search_topk(q, k=3).results,
                queries)
        assert [deweys(rs) for rs in got] == expected

    def test_repeated_query_reports_hit_and_skips_levels(self, small_db):
        pairs = small_db.search_batch(["xml data", "xml data"],
                                      with_stats=True)
        (r1, s1), (r2, s2) = pairs
        assert s1.cache_misses == 1 and s1.levels_processed > 0
        assert s2.cache_hits == 1 and s2.levels_processed == 0
        assert deweys(r1) == deweys(r2)

    def test_eviction_counter_on_stats(self):
        db = XMLDatabase.from_xml_text(
            "<r><a>xml data</a><b>xml</b></r>", result_cache_size=1)
        pairs = db.search_batch(["xml data", "xml", "xml data"],
                                with_stats=True)
        assert sum(s.cache_evictions for _, s in pairs) >= 1

    def test_search_counts_the_cache_like_batch(self):
        """Hit / miss / eviction counters on `ExecutionStats` are the
        pipeline's, so every entry point reports them the same way."""
        queries = ["xml data", "xml", "xml", "xml data"]

        def counters(run):
            db = XMLDatabase.from_xml_text(
                "<r><a>xml data</a><b>xml</b></r>", result_cache_size=1)
            return [(s.cache_hits, s.cache_misses, s.cache_evictions)
                    for s in run(db)]

        via_search = counters(lambda db: [
            db.search(q, with_stats=True)[1] for q in queries])
        via_batch = counters(lambda db: [
            s for _, s in db.search_batch(queries, with_stats=True)])
        assert via_search == via_batch == [
            (0, 1, 0), (0, 1, 1), (1, 0, 0), (0, 1, 1)]

    def test_threaded_batch_shares_cache(self, small_db):
        small_db.columnar_index     # built before the threads race to it
        small_db.cache.clear()
        queries = ["xml data"] * 8
        results = on_threads(4, small_db.search, queries)
        assert all(deweys(rs) == deweys(results[0]) for rs in results)
        stats = small_db.cache.results.stats
        assert stats.hits + stats.misses == 8
        assert stats.misses >= 1
        assert stats.hits >= 1

    def test_string_and_list_queries_share_cache_key(self, small_db):
        small_db.cache.clear()
        small_db.search_batch([["XML", "Data"]])
        pairs = small_db.search_batch(["xml data"], with_stats=True)
        assert pairs[0][1].cache_hits == 1

    def test_semantics_validated(self, small_db):
        with pytest.raises(ValueError):
            small_db.search_batch(["xml"], semantics="nope")

    def test_result_key_shape(self):
        assert result_key(["a", "b"], "elca", "join") == \
            (("a", "b"), "elca", "join", None)


class TestClearAndInvalidate:
    """`QueryCache.clear` / `invalidate` and their metric contract."""

    def test_lru_remove_is_not_an_eviction(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        assert cache.remove("a") is True
        assert cache.remove("a") is False
        assert cache.stats.evictions == 0
        assert len(cache) == 0

    def test_clear_empties_both_caches(self, small_db):
        small_db.search("xml data")
        qc = small_db.cache
        assert len(qc.results) > 0
        qc.clear()
        assert len(qc.results) == 0
        assert qc.results.stats.hits == 0
        # the next identical query re-evaluates (a miss, not a hit)
        pairs = small_db.search_batch(["xml data"], with_stats=True)
        stats = pairs[0][1]
        assert stats.cache_hits == 0 and stats.cache_misses == 1
        assert stats.levels_processed > 0

    def test_clear_keeps_request_counters_monotone(self):
        """Prometheus counters must never go down across a clear."""
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        db = XMLDatabase.from_xml_text(
            "<r><a>xml data</a><b>xml data</b></r>", metrics=registry)
        db.search("xml data")
        db.search("xml data")           # hit
        counters = registry.snapshot()["counters"]
        before = sum(v for k, v in counters.items()
                     if k.startswith("repro_cache_requests_total"))
        assert before > 0
        db.cache.clear()
        counters = registry.snapshot()["counters"]
        after = sum(v for k, v in counters.items()
                    if k.startswith("repro_cache_requests_total"))
        assert after == before          # clear never rewinds a counter
        db.search("xml data")           # miss after clear
        counters = registry.snapshot()["counters"]
        assert sum(v for k, v in counters.items()
                   if k.startswith("repro_cache_requests_total")) > after

    def test_clear_restarts_hit_ratio_gauge(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        db = XMLDatabase.from_xml_text(
            "<r><a>xml data</a><b>xml data</b></r>", metrics=registry)
        db.search("xml data")
        db.search("xml data")
        gauge = registry.gauge("repro_cache_hit_ratio",
                               {"cache": "results"})
        assert gauge.value > 0.0
        db.cache.clear()
        # derived gauge reads the live (fresh) stats, not the dead ones
        assert gauge.value == 0.0

    def test_invalidate_drops_postings_and_matching_results(self):
        qc = QueryCache(result_capacity=8)
        qc.put_results(result_key(["xml", "data"], "elca", "join"), [])
        qc.put_results(result_key(["data"], "elca", "join"), [])
        qc.put_results(result_key(["xml"], "slca", "join", 5), [])
        dropped = qc.invalidate("xml")
        assert dropped == 2
        assert qc.get_results(result_key(["data"], "elca", "join")) == []
        assert qc.get_results(
            result_key(["xml", "data"], "elca", "join")) is None

    def test_invalidate_unknown_term_is_a_noop(self):
        qc = QueryCache()
        qc.put_results(result_key(["data"], "elca", "join"), [])
        assert qc.invalidate("nope") == 0
        assert qc.get_results(result_key(["data"], "elca", "join")) == []

    def test_invalidated_query_reevaluates(self, small_db):
        small_db.cache.clear()
        small_db.search("xml data")
        small_db.cache.invalidate("xml")
        pairs = small_db.search_batch(["xml data"], with_stats=True)
        stats = pairs[0][1]
        assert stats.cache_misses == 1 and stats.levels_processed > 0


class TestDecodedColumnCache:
    """The byte-budget LRU of decoded columns (format-v4 serving)."""

    @staticmethod
    def _column(level=1, n=16):
        import numpy as np

        from repro.index.columnar import Column

        values = np.arange(n, dtype=np.int64)
        return Column(level, values, values.copy())

    def test_get_put_roundtrip(self):
        from repro.cache import DecodedColumnCache

        cache = DecodedColumnCache(capacity_bytes=1 << 20)
        key = ("ns", "xml", 1)
        assert cache.get(key) is None
        column = self._column()
        cache.put(key, column)
        assert cache.get(key) is column
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert cache.current_bytes == (column.values.nbytes
                                       + column.seq_idx.nbytes)

    def test_budget_evicts_least_recently_used(self):
        from repro.cache import DecodedColumnCache

        column = self._column()
        cost = column.values.nbytes + column.seq_idx.nbytes
        cache = DecodedColumnCache(capacity_bytes=2 * cost)
        cache.put("a", self._column())
        cache.put("b", self._column())
        cache.get("a")                       # b becomes the LRU entry
        cache.put("c", self._column())
        assert cache.get("a") is not None
        assert cache.get("b") is None
        assert cache.get("c") is not None
        assert cache.stats.evictions == 1
        assert cache.current_bytes <= cache.capacity_bytes

    def test_oversized_entry_never_admitted(self):
        from repro.cache import DecodedColumnCache

        cache = DecodedColumnCache(capacity_bytes=64)
        cache.put("big", self._column(n=1024))
        assert len(cache) == 0 and cache.current_bytes == 0

    def test_zero_capacity_disables(self):
        from repro.cache import DecodedColumnCache

        cache = DecodedColumnCache(capacity_bytes=0)
        cache.put("k", self._column())
        assert cache.get("k") is None
        assert len(cache) == 0

    def test_reput_same_key_replaces_cost(self):
        from repro.cache import DecodedColumnCache

        cache = DecodedColumnCache(capacity_bytes=1 << 20)
        cache.put("k", self._column(n=16))
        small = self._column(n=4)
        cache.put("k", small)
        assert cache.current_bytes == (small.values.nbytes
                                       + small.seq_idx.nbytes)
        assert len(cache) == 1

    def test_clear_resets(self):
        from repro.cache import DecodedColumnCache

        cache = DecodedColumnCache(capacity_bytes=1 << 20)
        cache.put("k", self._column())
        cache.get("k")
        cache.clear()
        assert len(cache) == 0 and cache.current_bytes == 0
        assert cache.stats.hits == 0 and cache.stats.misses == 0

    def test_as_dict_snapshot(self):
        from repro.cache import DecodedColumnCache

        cache = DecodedColumnCache(capacity_bytes=1 << 20)
        cache.put("k", self._column())
        cache.get("k")
        cache.get("absent")
        snap = cache.as_dict()
        assert snap["entries"] == 1
        assert snap["capacity_bytes"] == 1 << 20
        assert snap["hits"] == 1 and snap["misses"] == 1
        assert snap["bytes"] == cache.current_bytes

    def test_bind_metrics_publishes_counters(self):
        from repro.cache import DecodedColumnCache
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        cache = DecodedColumnCache(capacity_bytes=1 << 20,
                                   metrics=registry)
        cache.put("k", self._column())
        cache.get("k")
        cache.get("absent")
        snap = registry.snapshot()
        counters = snap["counters"]
        hits = counters[
            'repro_cache_requests_total{cache="decoded",outcome="hit"}']
        misses = counters[
            'repro_cache_requests_total{cache="decoded",outcome="miss"}']
        assert hits == 1 and misses == 1
        ratio = snap["gauges"]['repro_cache_hit_ratio{cache="decoded"}']
        assert ratio == 0.5
