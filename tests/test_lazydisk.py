"""Tests for the disk-backed lazy column store (`repro.index.lazydisk`)."""

import numpy as np
import pytest

from repro import XMLDatabase
from repro.algorithms.join_based import JoinBasedSearch
from repro.algorithms.topk_keyword import TopKKeywordSearch
from repro.index import storage
from repro.index.lazydisk import (IOStats, LazyColumnarIndex,
                                  LazyColumnarPostings)


@pytest.fixture
def lazy_pair(small_db):
    blob = storage.serialize_columnar_index(small_db.columnar_index)
    lazy = LazyColumnarIndex(blob, small_db.tree, small_db.tokenizer,
                             small_db.ranking)
    return small_db, lazy


class TestParsing:
    def test_vocabulary_matches(self, lazy_pair):
        db, lazy = lazy_pair
        assert lazy.vocabulary == db.columnar_index.vocabulary

    def test_no_columns_read_at_parse_time(self, lazy_pair):
        _, lazy = lazy_pair
        assert lazy.io.columns_read == 0

    def test_wrong_magic(self, small_db):
        with pytest.raises(ValueError):
            LazyColumnarIndex(b"NOPExxxx", small_db.tree)

    def test_lengths_and_scores_eager(self, lazy_pair):
        db, lazy = lazy_pair
        eager = db.columnar_index.term_postings("xml")
        postings = lazy.term_postings("xml")
        assert list(postings.lengths) == list(eager.lengths)
        assert postings.scores == pytest.approx(list(eager.scores))
        assert lazy.io.columns_read == 0

    def test_unknown_term_empty(self, lazy_pair):
        _, lazy = lazy_pair
        assert len(lazy.term_postings("zzz")) == 0

    def test_seqs_refused(self, lazy_pair):
        """Not refused any more: the sequences derive from the columns,
        equal to the tuples the in-memory postings were built from."""
        db, lazy = lazy_pair
        for term in lazy.vocabulary:
            assert lazy.term_postings(term).seqs == \
                db.columnar_index.term_postings(term).seqs


class TestConcurrentFirstTouch:
    """At ``--workers 0`` the daemon's shard thread and its event-loop
    thread (vocabulary pruning, the root protocol) share one index, as
    do a library user's own threads.  A term must be in the vocabulary, with all its
    occurrences, before, during and after whichever thread parses its
    block first -- a term seen as absent prunes its shard and the
    answer is cached as complete."""

    THREADS = 8
    TERMS = 30

    def test_every_thread_sees_the_whole_term(self, dblp_db):
        import sys
        import threading

        memory = dblp_db.columnar_index
        blob = storage.serialize_columnar_index(memory)
        terms = sorted(memory.vocabulary,
                       key=memory.document_frequency)[-self.TERMS:]
        lazy = LazyColumnarIndex(blob, memory.nodes)
        barrier = threading.Barrier(self.THREADS, timeout=60)
        seen = [[] for _ in range(self.THREADS)]

        def touch(slot):
            for term in terms:
                barrier.wait()
                seen[slot].append((term in lazy,
                                   lazy.document_frequency(term)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)     # switch inside the CRC + parse
        try:
            workers = [threading.Thread(target=touch, args=(slot,))
                       for slot in range(self.THREADS)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        want = [(True, memory.document_frequency(t)) for t in terms]
        assert all(df > 0 for _, df in want)
        for slot in range(self.THREADS):
            assert seen[slot] == want
        # One postings object per term, whichever thread built it.
        assert all(lazy.term_postings(t) is lazy.term_postings(t)
                   for t in terms)


class TestColumns:
    def test_columns_match_eager(self, lazy_pair):
        db, lazy = lazy_pair
        for term in ("xml", "data"):
            eager = db.columnar_index.term_postings(term)
            postings = lazy.term_postings(term)
            for level in range(1, eager.max_len + 1):
                a, b = eager.column(level), postings.column(level)
                assert list(a.values) == list(b.values)
                assert list(a.seq_idx) == list(b.seq_idx)

    def test_decompression_counted_once(self, lazy_pair):
        _, lazy = lazy_pair
        postings = lazy.term_postings("xml")
        postings.column(2)
        postings.column(2)
        assert lazy.io.columns_read == 1
        assert lazy.io.compressed_bytes_read > 0

    def test_value_at_matches_eager(self, lazy_pair):
        db, lazy = lazy_pair
        eager = db.columnar_index.term_postings("xml")
        postings = lazy.term_postings("xml")
        # A sequence's number at a level is read off the lazily decoded
        # column, at the row its ordinal holds there (`value_at` left
        # with the per-tuple cursor).
        for ordinal, seq in enumerate(eager.seqs):
            for level in range(1, len(seq) + 1):
                column = postings.column(level)
                row = int(np.searchsorted(column.seq_idx, ordinal))
                assert column.seq_idx[row] == ordinal
                assert column.values[row] == seq[level - 1]

    def test_beyond_max_len_is_empty_without_io(self, lazy_pair):
        _, lazy = lazy_pair
        postings = lazy.term_postings("keyword")
        before = lazy.io.columns_read
        assert len(postings.column(postings.max_len + 3)) == 0
        assert lazy.io.columns_read == before


class TestQueriesOnLazyIndex:
    @pytest.mark.parametrize("semantics", ["elca", "slca"])
    def test_join_based_matches_eager(self, lazy_pair, semantics):
        db, lazy = lazy_pair
        expected, _ = JoinBasedSearch(db.columnar_index).evaluate(
            ["xml", "data"], semantics)
        got, _ = JoinBasedSearch(lazy).evaluate(["xml", "data"], semantics)
        assert [(r.node.dewey, round(r.score, 9)) for r in got] == \
            [(r.node.dewey, round(r.score, 9)) for r in expected]

    def test_topk_matches_eager(self, lazy_pair):
        db, lazy = lazy_pair
        expected = TopKKeywordSearch(db.columnar_index).search(
            ["xml", "data"], 3)
        got = TopKKeywordSearch(lazy).search(["xml", "data"], 3)
        assert [round(r.score, 9) for r in got] == \
            [round(r.score, 9) for r in expected]

    def test_sweep_starts_at_min_max_length(self, lazy_pair):
        """Section III-B: no column below min(l_m) is ever read."""
        db, lazy = lazy_pair
        lazy.io.reset()
        JoinBasedSearch(lazy).evaluate(["xml", "data"], "elca")
        postings = db.columnar_index.query_postings(["xml", "data"])
        start = min(p.max_len for p in postings)
        assert lazy.io.per_level
        assert max(lazy.io.per_level) <= start

    def test_shallow_keyword_limits_io(self, corpus_db):
        """A keyword living only at shallow levels caps the sweep: the
        deep columns of the frequent keyword are never decompressed."""
        blob = storage.serialize_columnar_index(corpus_db.columnar_index)
        lazy = LazyColumnarIndex(blob, corpus_db.tree,
                                 corpus_db.tokenizer, corpus_db.ranking)
        deep = corpus_db.columnar_index.term_postings("gamma").max_len
        lazy.io.reset()
        JoinBasedSearch(lazy).evaluate(["gamma", "rare"], "elca")
        rare_depth = corpus_db.columnar_index.term_postings(
            "rare").max_len
        assert max(lazy.io.per_level) <= min(deep, rare_depth)


class TestIOStats:
    def test_reset(self):
        stats = IOStats()
        stats.record(3, 100)
        stats.reset()
        assert stats.columns_read == 0
        assert stats.per_level == {}

    def test_per_level_counts(self):
        stats = IOStats()
        stats.record(3, 10)
        stats.record(3, 10)
        stats.record(1, 5)
        assert stats.per_level == {3: 2, 1: 1}
        assert stats.compressed_bytes_read == 25
