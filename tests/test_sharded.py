"""Sharded evaluation equals the unsharded oracle, exactly.

The partitioning invariant (`repro.serve.sharding`): every shard keeps
the full tree but only the postings whose level-2 ancestor hashes to
it, so all evaluation at levels >= 2 is shard-local and only the
document root needs the cross-shard protocol in `repro.serve.merge`.
These tests pin the end-to-end consequence: `ShardedDatabase.search`
and `.search_topk` return the *same* ids, scores, order, witnesses and
`TopKResult.bound` as the single `XMLDatabase` for every shard count --
in memory, through a disk round-trip, through fault-injected I/O, and
(as a containment contract) under deadline partials.
"""

import math

import pytest

from repro import XMLDatabase
from repro.serve import ShardedDatabase, shard_of_dewey, subtree_shard_map

SHARD_COUNTS = (1, 2, 4, 7)
QUERIES = ("alpha beta", "rare gamma", "cx cy", "c3a c3b c3c",
           "alpha", "rare", "beta gamma rare")
SEMANTICS = ("elca", "slca")


def canon(results):
    return [(r.node.dewey, round(r.score, 9), r.level,
             tuple(round(w, 9) for w in r.witness_scores))
            for r in results]


def assert_search_equal(sharded, oracle, query, semantics):
    want = canon(oracle.search(query, semantics=semantics,
                               use_cache=False))
    got = canon(sharded.search(query, semantics=semantics,
                               use_cache=False))
    assert got == want, (query, semantics)


def assert_topk_equal(sharded, oracle, query, semantics, k=10):
    want = oracle.search_topk(query, k, semantics=semantics)
    got = sharded.search_topk(query, k, semantics=semantics)
    assert canon(got.results) == canon(want.results), (query, semantics)
    assert got.partial == want.partial
    if want.bound is None:
        assert got.bound is None
    else:
        assert got.bound == pytest.approx(want.bound)


class TestPartitioning:
    def test_shard_of_dewey_is_stable_and_root_safe(self):
        assert shard_of_dewey((1,), 4) == 0
        assert shard_of_dewey((1, 1), 4) == shard_of_dewey((1, 1, 9), 4)
        # The root is always 1; the root-child ordinal picks the shard.
        assert {shard_of_dewey((1, d), 3) for d in range(1, 7)} == {0, 1, 2}
        assert [shard_of_dewey((1, d, 5), 2) for d in (1, 2, 3)] == [0, 1, 0]

    def test_subtree_map_covers_every_root_child(self, small_db):
        mapping = subtree_shard_map(small_db.tree, 2)
        children = {c.jdewey[-1] for c in small_db.tree.root.children}
        assert set(mapping) == children
        assert set(mapping.values()) <= {0, 1}

    def test_every_posting_lands_in_exactly_one_shard(self, dblp_db):
        sharded = ShardedDatabase.from_database(dblp_db, 4)
        for term in ("alpha", "rare", "cx"):
            total = len(dblp_db.columnar_index.term_postings(term))
            split = sum(len(s.columnar_index.term_postings(term))
                        for s in sharded.shards)
            assert split == total


class TestEquivalence:
    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_search_matches_oracle(self, corpus_db, n_shards):
        sharded = ShardedDatabase.from_database(corpus_db, n_shards)
        for query in QUERIES:
            for semantics in SEMANTICS:
                assert_search_equal(sharded, corpus_db, query, semantics)

    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_topk_matches_oracle(self, corpus_db, n_shards):
        sharded = ShardedDatabase.from_database(corpus_db, n_shards)
        for query in QUERIES:
            for semantics in SEMANTICS:
                assert_topk_equal(sharded, corpus_db, query, semantics)

    def test_small_doc_root_protocol(self, small_db):
        """The root is the interesting cross-shard case; SMALL_XML has
        root-level ELCA/SLCA differences that exercise it."""
        for n_shards in SHARD_COUNTS:
            sharded = ShardedDatabase.from_database(small_db, n_shards)
            for semantics in SEMANTICS:
                assert_search_equal(sharded, small_db, "xml data",
                                    semantics)
                assert_topk_equal(sharded, small_db, "xml data",
                                  semantics, k=5)

    def test_missing_term_raises_like_oracle(self, dblp_db):
        from repro.algorithms.base import EmptyResultError

        sharded = ShardedDatabase.from_database(dblp_db, 4)
        with pytest.raises(EmptyResultError):
            sharded.search("alpha zzz-not-a-term", strict=True)

    def test_batch_matches_oracle(self, dblp_db):
        sharded = ShardedDatabase.from_database(dblp_db, 4)
        queries = list(QUERIES[:4])
        want = dblp_db.search_batch(queries, k=5, use_cache=False)
        got = sharded.search_batch(queries, k=5, use_cache=False)
        for w, g in zip(want, got):
            assert canon(list(g)) == canon(list(w))
        assert not got.errors


class TestEmptyTermList:
    """A query that tokenizes to no terms has no answers -- not the
    document root at score 0.0, which is what the root protocol makes of
    "every one of zero terms is covered"."""

    @pytest.mark.parametrize("query", ("", "!!", "\xff\xfe", []))
    @pytest.mark.parametrize("n_shards", (1, 2, 4))
    def test_no_terms_no_results_like_flat(self, dblp_db, query, n_shards):
        sharded = ShardedDatabase.from_database(dblp_db, n_shards)
        for semantics in SEMANTICS:
            assert_search_equal(sharded, dblp_db, query, semantics)
            assert_topk_equal(sharded, dblp_db, query, semantics)
            assert list(sharded.search_stream(query, semantics)) == \
                list(dblp_db.search_stream(query, semantics)) == []
        assert len(sharded.search(query)) == 0


class TestStream:
    """`ShardedDatabase.search_stream` is the flat database's stream:
    the same ``(dewey, score)`` sequence, cut the same way by a budget."""

    @staticmethod
    def pairs(stream):
        return [(r.node.dewey, round(r.score, 9)) for r in stream]

    @pytest.mark.parametrize("semantics", SEMANTICS)
    @pytest.mark.parametrize("n_shards", (1, 2, 4))
    def test_stream_matches_flat(self, dblp_db, n_shards, semantics):
        sharded = ShardedDatabase.from_database(dblp_db, n_shards)
        streamed = 0
        for query in QUERIES:
            want = self.pairs(dblp_db.search_stream(query, semantics))
            assert self.pairs(sharded.search_stream(query, semantics)) \
                == want, query
            streamed += len(want)
        assert streamed > 0

    def test_expired_partial_budget_ends_as_a_prefix(self, dblp_db):
        sharded = ShardedDatabase.from_database(dblp_db, 2)
        full = self.pairs(sharded.search_stream("beta gamma rare"))
        cut = self.pairs(sharded.search_stream(
            "beta gamma rare", timeout_ms=0, on_deadline="partial"))
        assert len(full) > 0 and cut == full[:len(cut)]

    def test_expired_raise_budget_raises_from_next(self, dblp_db):
        from repro.reliability.errors import DeadlineExceeded

        sharded = ShardedDatabase.from_database(dblp_db, 2)
        stream = sharded.search_stream("beta gamma rare", timeout_ms=0,
                                       on_deadline="raise")
        with pytest.raises(DeadlineExceeded):
            next(stream)


class TestBatchParity:
    """Both database kinds run `repro.api.run_batch`: a mixed batch
    isolates, times, summarizes and counts the same way on either."""

    BATCH_COUNTERS = ("repro_batch_query_errors_total",
                      "repro_batch_queries_total",
                      'repro_deadline_hits_total{outcome="error"}')

    @pytest.mark.parametrize("timeout_ms", (None, 0))
    def test_mixed_batch_same_on_flat_and_sharded(self, timeout_ms):
        import inspect

        from repro.obs import MetricsRegistry
        from tests.conftest import SMALL_XML

        flat = XMLDatabase.from_xml_text(SMALL_XML,
                                         metrics=MetricsRegistry())
        sharded = ShardedDatabase.from_database(flat, 2)
        queries = ["xml data", object(), "xml data"]    # good, unparseable

        def run(db):
            before = db.metrics.snapshot()["counters"]
            batch = db.search_batch(queries, timeout_ms=timeout_ms)
            after = db.metrics.snapshot()["counters"]
            return batch, {name: after.get(name, 0) - before.get(name, 0)
                           for name in self.BATCH_COUNTERS}

        (want, want_deltas), (got, got_deltas) = run(flat), run(sharded)
        assert sorted(want.errors) == ([1] if timeout_ms is None
                                       else [0, 1, 2])
        assert {i: type(e) for i, e in got.errors.items()} == \
            {i: type(e) for i, e in want.errors.items()}
        assert [entry is None for entry in got] == \
            [entry is None for entry in want]
        # a failed slot records 0.0, a served one its wall time
        assert [ms == 0.0 for ms in got.latencies_ms] == \
            [ms == 0.0 for ms in want.latencies_ms] == \
            [index in want.errors for index in range(len(queries))]
        for field in ("cache_hits", "cache_misses", "cache_evictions",
                      "partial"):
            assert getattr(got.summary, field) == \
                getattr(want.summary, field), field
        assert got_deltas == want_deltas
        assert want_deltas["repro_batch_queries_total"] == len(queries)
        assert want_deltas["repro_batch_query_errors_total"] == \
            len(want.errors)
        assert want_deltas['repro_deadline_hits_total{outcome="error"}'] \
            == (0 if timeout_ms is None else 2)
        for db in (flat, sharded):
            assert not {"threads", "processes", "executor"} & set(
                inspect.signature(db.search_batch).parameters)


class TestDiskRoundTrip:
    @pytest.fixture(scope="class")
    def sharded_dir(self, dblp_db, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("sharded") / "db")
        dblp_db.save(path, shards=4)
        return path

    @pytest.mark.parametrize("lazy", (True, False))
    def test_loaded_sharded_matches_oracle(self, dblp_db, sharded_dir,
                                           lazy):
        from repro.diskdb import load_database

        db = load_database(sharded_dir, lazy=lazy,
                           verify="lazy" if lazy else "eager")
        assert isinstance(db, ShardedDatabase)
        assert db.n_shards == 4
        for query in QUERIES[:4]:
            assert_search_equal(db, dblp_db, query, "elca")
            assert_topk_equal(db, dblp_db, query, "slca")

    def test_manifest_round_trips(self, sharded_dir):
        from repro.diskdb import load_database

        db = load_database(sharded_dir)
        assert db.manifest["count"] == 4
        assert db.manifest["strategy"] == "root-child-mod"
        assert len(db.manifest["dirs"]) == 4

    def test_faulty_load_still_exact(self, dblp_db, sharded_dir):
        """Transient per-shard I/O faults heal through the retry
        policy; the healed sharded database stays oracle-exact."""
        from repro.diskdb import load_database
        from repro.reliability.faults import FaultInjector
        from repro.reliability.retry import RetryPolicy

        inj = FaultInjector(error_rate=0.15, seed=3)
        policy = RetryPolicy(max_attempts=10, sleep=lambda _s: None,
                             seed=3)
        db = load_database(sharded_dir, injector=inj, retry=policy)
        assert isinstance(db, ShardedDatabase)
        for query in QUERIES[:3]:
            assert_search_equal(db, dblp_db, query, "elca")
            assert_topk_equal(db, dblp_db, query, "elca")


class TestDeadlinePartials:
    def test_partial_topk_is_consistent_prefix(self, dblp_db):
        """An expired budget may truncate, never corrupt: whatever
        comes back is a subset of the oracle's answers with exact
        scores, ordered best-first, and nothing missing scores above
        the reported bound."""
        sharded = ShardedDatabase.from_database(dblp_db, 4)
        oracle = {(r.node.dewey): round(r.score, 9)
                  for r in dblp_db.search_topk(
                      "beta gamma rare", 50, semantics="elca").results}
        result = sharded.search_topk("beta gamma rare", 50,
                                     semantics="elca", timeout_ms=0.0,
                                     on_deadline="partial")
        assert result.partial
        scores = [r.score for r in result.results]
        assert scores == sorted(scores, reverse=True)
        for r in result.results:
            assert oracle[r.node.dewey] == round(r.score, 9)
        if result.bound is not None and not math.isinf(result.bound):
            returned = {r.node.dewey for r in result.results}
            missing_above = [d for d, s in oracle.items()
                             if d not in returned
                             and s > round(result.bound, 9) + 1e-9]
            assert missing_above == []

    def test_partial_search_flags_stats(self, dblp_db):
        sharded = ShardedDatabase.from_database(dblp_db, 4)
        results, stats = sharded.search("beta gamma rare",
                                        timeout_ms=0.0,
                                        on_deadline="partial",
                                        with_stats=True)
        assert stats.partial
        full = {r.node.dewey for r in dblp_db.search("beta gamma rare",
                                                     use_cache=False)}
        assert {r.node.dewey for r in results} <= full

    def test_raise_policy_raises(self, dblp_db):
        from repro.reliability.errors import DeadlineExceeded

        sharded = ShardedDatabase.from_database(dblp_db, 2)
        with pytest.raises(DeadlineExceeded):
            sharded.search("beta gamma", timeout_ms=0.0,
                           on_deadline="raise")

    def test_generous_budget_stays_exact(self, dblp_db):
        sharded = ShardedDatabase.from_database(dblp_db, 4)
        result = sharded.search_topk("alpha beta", 10, timeout_ms=60000,
                                     on_deadline="partial")
        want = dblp_db.search_topk("alpha beta", 10)
        assert canon(result.results) == canon(want.results)
        assert not result.partial


class TestCacheIsolation:
    def test_shard_caches_not_shared(self, dblp_db):
        """Per-shard result caches must stay private: result keys carry
        no shard id, so one shared cache would serve shard A's partial
        view of a query to shard B."""
        sharded = ShardedDatabase.from_database(dblp_db, 4)
        caches = {id(s.cache) for s in sharded.shards if s.cache}
        assert len(caches) == len([s for s in sharded.shards if s.cache])

    def test_facade_cache_hit_and_clear(self, dblp_db):
        sharded = ShardedDatabase.from_database(dblp_db, 2)
        first = sharded.search("alpha beta")
        stats = sharded.cache.results.stats
        hits = stats.hits
        again = sharded.search("alpha beta")
        assert canon(again) == canon(first)
        assert sharded.cache.results.stats.hits == hits + 1
        sharded.clear_caches()
        assert len(sharded.cache.results) == 0
