"""Tests for the query-serving cache layer (`repro.cache`), the
library's lack of a result cache, and `XMLDatabase.search_batch`."""

import inspect

import pytest

from repro import XMLDatabase
from repro.cache import LRUCache, QueryCache, result_key
from repro.diskdb import load_database
from repro.serve import ShardedDatabase
from tests.conftest import on_threads


def deweys(results):
    return [r.node.dewey for r in results]


def _answers(results, stats):
    return deweys(results), [r.score for r in results], stats.as_dict()


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
    """`QueryCache`, the serving daemon's response cache, and the
    library's lack of one."""

    def test_cache_hit_returns_the_stored_object(self, small_db):
        """No copy on either side of the cache: a hit hands back the
        very answer the miss stored, and that is safe because a caller
        cannot change it."""
        cache = QueryCache(result_capacity=4)
        key = result_key(["xml", "data"], "elca", "serve-search")
        answer = small_db.search("xml data")
        cache.put_results(key, answer)
        assert cache.get_results(key) is answer
        assert not hasattr(answer, "clear")
        with pytest.raises(ValueError):
            answer.scores[0] = 99.0
        with pytest.raises(TypeError):
            answer[0] = answer[1]

    def test_correctness_after_eviction(self):
        cache = QueryCache(result_capacity=1)
        pair = result_key(["xml", "data"], "elca", "serve-search")
        single = result_key(["xml"], "elca", "serve-search")
        for _ in range(3):  # alternate: each answer evicts the other
            cache.put_results(pair, "pair")
            assert cache.get_results(pair) == "pair"
            assert cache.get_results(single) is None
            cache.put_results(single, "single")
            assert cache.get_results(single) == "single"
            assert cache.get_results(pair) is None
        assert cache.results.stats.evictions > 0

    def test_use_cache_false_bypasses(self, small_db):
        """There is no library cache to bypass: ``use_cache`` is
        accepted and ignored on both `search` methods -- same answers,
        same work counters, either way."""
        sharded = ShardedDatabase.from_database(small_db, 2)
        for db in (small_db, sharded):
            runs = [_answers(*db.search("xml data", use_cache=flag,
                                        with_stats=True))
                    for flag in (True, False, True)]
            assert runs[0] == runs[1] == runs[2]
            assert runs[0][2]["levels_processed"] > 0

    def test_semantics_and_algorithm_keyed_separately(self, fig1_db):
        elca = fig1_db.search("xml data", semantics="elca")
        slca = fig1_db.search("xml data", semantics="slca")
        assert deweys(fig1_db.search("xml data", semantics="slca")) == \
            deweys(slca)
        # In the Figure-1 tree the root is an ELCA but not an SLCA, so
        # the two semantics genuinely differ -- a shared cache key would
        # have returned the wrong set.
        assert deweys(elca) != deweys(slca)
        assert result_key(["xml", "data"], "elca", "join") != \
            result_key(["xml", "data"], "slca", "join")

    def test_cache_stats_shape(self):
        report = QueryCache().stats()
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


class TestNoLibraryCache:
    """The library answers every query fresh; the daemon's cache is the
    only one."""

    def test_no_cache_keyword_or_attribute(self):
        for fn in (XMLDatabase.__init__, XMLDatabase.search_batch,
                   ShardedDatabase.__init__, ShardedDatabase.search_batch,
                   load_database):
            params = set(inspect.signature(fn).parameters)
            assert not {"cache", "result_cache_size", "use_cache"} & params
        for cls in (XMLDatabase, ShardedDatabase):
            assert not hasattr(cls, "cache_stats")
        assert not hasattr(ShardedDatabase, "clear_caches")
        assert not hasattr(QueryCache, "invalidate")
        assert not {"remove", "keys"} & set(vars(LRUCache))


class TestSearchBatch:
    @pytest.mark.parametrize("threads", [None, 4])
    def test_batch_matches_sequential_search(self, small_db, threads):
        queries = ["xml data", "data", "xml keyword", "zzz missing"]
        expected = [deweys(small_db.search(q)) for q in queries]
        if threads is None:
            got = small_db.search_batch(queries)
        else:
            got = on_threads(threads, small_db.search, queries)
        assert [deweys(rs) for rs in got] == expected

    @pytest.mark.parametrize("threads", [None, 4])
    def test_batch_matches_sequential_topk(self, small_db, threads):
        queries = ["xml data", "data xml"]
        expected = [deweys(small_db.search_topk(q, k=3).results)
                    for q in queries]
        if threads is None:
            got = small_db.search_batch(queries, k=3)
        else:
            got = on_threads(
                threads, lambda q: small_db.search_topk(q, k=3).results,
                queries)
        assert [deweys(rs) for rs in got] == expected

    def test_repeated_query_evaluates_again(self, small_db):
        pairs = small_db.search_batch(["xml data", "xml data"],
                                      with_stats=True)
        (r1, s1), (r2, s2) = pairs
        assert s1.levels_processed > 0
        assert s2.as_dict() == s1.as_dict()
        assert deweys(r1) == deweys(r2)

    def test_search_counts_work_like_batch(self):
        """Work counters on `ExecutionStats` are the pipeline's, so
        every entry point reports them the same way."""
        queries = ["xml data", "xml", "xml", "xml data"]
        db = XMLDatabase.from_xml_text("<r><a>xml data</a><b>xml</b></r>")
        via_search = [db.search(q, with_stats=True)[1].as_dict()
                      for q in queries]
        via_batch = [s.as_dict() for _, s in
                     db.search_batch(queries, with_stats=True)]
        assert via_search == via_batch

    def test_threaded_batch_shares_cache(self):
        """The daemon's ``--workers 0`` threads share its cache."""
        cache = QueryCache(result_capacity=16)
        key = result_key(["xml", "data"], "elca", "serve-search")

        def serve(_query):
            answer = cache.get_results(key)
            if answer is None:
                answer = "answer"
                cache.put_results(key, answer)
            return answer

        assert on_threads(4, serve, range(8)) == ["answer"] * 8
        stats = cache.results.stats
        assert stats.hits + stats.misses == 8
        assert stats.misses >= 1 and stats.hits >= 1

    def test_string_and_list_queries_share_cache_key(self, small_db):
        """The daemon keys its cache on the parsed terms, and both
        query shapes parse alike."""
        assert result_key(small_db._terms(["XML", "Data"]), "elca", "s") == \
            result_key(small_db._terms("xml data"), "elca", "s")

    def test_semantics_validated(self, small_db):
        with pytest.raises(ValueError):
            small_db.search_batch(["xml"], semantics="nope")

    def test_result_key_shape(self):
        assert result_key(["a", "b"], "elca", "join") == \
            (("a", "b"), "elca", "join", None)


class TestClearAndInvalidate:
    """`QueryCache.clear` (the daemon's ``/cache/clear``)."""

    def test_clear_restarts_hit_ratio_gauge(self):
        """`stats` reads the fresh counters after a clear."""
        cache = QueryCache()
        key = result_key(["xml", "data"], "elca", "serve-search")
        cache.put_results(key, "answer")
        cache.get_results(key)
        assert cache.stats()["results"]["hits"] == 1
        cache.clear()
        assert len(cache.results) == 0
        assert cache.stats()["results"] == {
            "hits": 0, "misses": 0, "evictions": 0}
        assert cache.get_results(key) is None


class TestDecodedColumnCache:
    """The byte-budget LRU of decoded columns (format-v4 serving)."""

    @staticmethod
    def _column(level=1, n=16):
        import numpy as np

        from repro.index.columnar import Column

        values = np.arange(n, dtype=np.int64)
        return Column.of_rows(level, values, values.copy())

    def test_get_put_roundtrip(self):
        from repro.cache import DecodedColumnCache

        cache = DecodedColumnCache(capacity_bytes=1 << 20)
        key = ("ns", "xml", 1)
        assert cache.get(key) is None
        column = self._column()
        cache.put(key, column)
        assert cache.get(key) is column
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        # The three run arrays, each counted.
        assert cache.current_bytes == column.nbytes == (
            column.distinct.nbytes + column.run_starts.nbytes
            + column.run_ordinals.nbytes)

    def test_budget_evicts_least_recently_used(self):
        from repro.cache import DecodedColumnCache

        column = self._column()
        cost = column.nbytes
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
        assert cache.current_bytes == small.nbytes
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


class TestChecksStayOutOfTheDecodedCache:
    """The decoded-column cache holds what queries decoded.  An eager
    open's consistency check and a sharded re-save of an opened
    database read every column through `level_values`, which caches
    nowhere: they neither fill the cache nor evict from it."""

    def test_eager_open_and_sharded_resave(self, dblp_db, tmp_path):
        from repro.diskdb import load_database, save_database

        save_database(dblp_db, str(tmp_path / "flat"), fsync=False)
        opened = load_database(str(tmp_path / "flat"), verify="eager")
        cache = opened.columnar_index._decoded_cache

        def untouched():
            snap = cache.as_dict()
            return (snap["entries"], snap["misses"], snap["bytes"]) \
                == (0, 0, 0)

        assert untouched()
        save_database(opened, str(tmp_path / "sharded"), shards=2,
                      fsync=False)
        assert untouched()
        assert deweys(load_database(str(tmp_path / "sharded")).search(
            "alpha beta", use_cache=False)) == deweys(opened.search(
                "alpha beta", use_cache=False))
        assert len(cache) > 0 and cache.stats.misses == len(cache)
