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
    want = canon(oracle.search(query, semantics=semantics))
    got = canon(sharded.search(query, semantics=semantics))
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


class TestShardByteSkew:
    """The root-child partition keeps shards' containers balanced: on
    the 400-paper DBLP corpus at 4 shards the largest
    ``shard-NN/columnar.bin`` is within 1.45x the mean (a skewed shard
    bounds the scatter's tail)."""

    def test_largest_shard_within_bound(self, tmp_path):
        import os

        path = str(tmp_path / "db")
        db = XMLDatabase.generate_dblp(seed=7, n_papers=400)
        db.save(path, shards=4, fsync=False)
        sizes = [os.path.getsize(os.path.join(
                     path, f"shard-{sid:02d}", "columnar.bin"))
                 for sid in range(4)]
        assert max(sizes) <= 1.45 * (sum(sizes) / len(sizes)), sizes
        db.save(path, shards=2, fsync=False)
        assert sorted(name for name in os.listdir(path)
                      if name.startswith("shard-")) == ["shard-00",
                                                       "shard-01"]


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
        want = dblp_db.search_batch(queries, k=5)
        got = sharded.search_batch(queries, k=5)
        for w, g in zip(want, got):
            assert canon(list(g)) == canon(list(w))
        assert not got.errors

    @pytest.mark.parametrize("n_shards", (1, 2, 4))
    def test_both_topk_plans_match_flat(self, dblp_db, n_shards):
        """``hybrid`` (the default) and ``topk-join`` are streams of the
        same driver: a sharded database serves both, by name, in
        `search_topk` and `search_batch`, with the flat answers."""
        sharded = ShardedDatabase.from_database(dblp_db, n_shards)
        queries = list(QUERIES)
        for algorithm in ("hybrid", "topk-join"):
            for semantics in SEMANTICS:
                for query in queries:
                    want = dblp_db.search_topk(query, 5, semantics,
                                               algorithm=algorithm)
                    got = sharded.search_topk(query, 5, semantics,
                                              algorithm=algorithm)
                    assert canon(got) == canon(want), (algorithm, query)
            want = dblp_db.search_batch(queries, k=5, algorithm=algorithm)
            got = sharded.search_batch(queries, k=5, algorithm=algorithm)
            assert not got.errors
            assert [canon(g) for g in got] == [canon(w) for w in want]
        with pytest.raises(ValueError, match="hybrid"):
            sharded.search_topk("alpha beta", 5, algorithm="rdil")


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
    """Both database kinds run `repro.api.BatchSearch.search_batch`: a
    mixed batch isolates, times and summarizes the same way on either."""

    @pytest.mark.parametrize("timeout_ms", (None, 0))
    def test_mixed_batch_same_on_flat_and_sharded(self, timeout_ms):
        import inspect

        from repro.reliability.errors import DeadlineExceeded
        from tests.conftest import SMALL_XML

        flat = XMLDatabase.from_xml_text(SMALL_XML)
        sharded = ShardedDatabase.from_database(flat, 2)
        queries = ["xml data", object(), "xml data"]    # good, unparseable

        want, got = (db.search_batch(queries, timeout_ms=timeout_ms)
                     for db in (flat, sharded))
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
        for field in ("partial",):
            assert getattr(got.summary, field) == \
                getattr(want.summary, field), field
        assert sum(isinstance(e, DeadlineExceeded)
                   for e in want.errors.values()) == \
            (0 if timeout_ms is None else 2)
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

    def test_faulty_load_still_exact(self, dblp_db, sharded_dir,
                                     monkeypatch):
        """Transient per-shard I/O faults heal through the retry
        policy; the healed sharded database stays oracle-exact."""
        from repro.diskdb import load_database
        from tests.faults import FaultInjector, faulty_disk

        faulty_disk(monkeypatch, FaultInjector(error_rate=0.15, seed=3),
                    max_attempts=10)
        db = load_database(sharded_dir)
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
        full = {r.node.dewey for r in dblp_db.search("beta gamma rare")}
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


