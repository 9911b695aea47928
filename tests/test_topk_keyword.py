"""Tests for the join-based top-K keyword search (section IV-C)."""

import pytest

from repro.algorithms.base import sort_by_score
from repro.algorithms.oracle import SemanticsOracle
from repro.algorithms.topk_join import CLASSIC, GROUP
from repro.algorithms.topk_keyword import TopKKeywordSearch


def engine(db, **kwargs):
    return TopKKeywordSearch(db.columnar_index, **kwargs)


def reference_topk(db, terms, k, semantics="elca"):
    oracle = SemanticsOracle(db.tree, db.inverted_index)
    return sort_by_score(oracle.evaluate(terms, semantics))[:k]


class TestCorrectness:
    @pytest.mark.parametrize("semantics", ["elca", "slca"])
    @pytest.mark.parametrize("k", [1, 2, 5, 100])
    def test_matches_reference_small(self, small_db, semantics, k):
        expected = reference_topk(small_db, ["xml", "data"], k, semantics)
        got = engine(small_db).search(["xml", "data"], k, semantics)
        assert [r.score for r in got] == pytest.approx(
            [r.score for r in expected])

    @pytest.mark.parametrize("semantics", ["elca", "slca"])
    @pytest.mark.parametrize("terms", [
        ["alpha", "beta"], ["cx", "cy"], ["alpha", "beta", "gamma"],
        ["c3a", "c3b", "c3c"], ["rare", "gamma"],
    ])
    def test_matches_reference_corpus(self, corpus_db, semantics, terms):
        expected = reference_topk(corpus_db, terms, 10, semantics)
        got = engine(corpus_db).search(terms, 10, semantics)
        assert [round(r.score, 9) for r in got] == \
            [round(r.score, 9) for r in expected]

    def test_results_descend_by_score(self, corpus_db):
        got = engine(corpus_db).search(["cx", "cy"], 10)
        scores = [r.score for r in got]
        assert scores == sorted(scores, reverse=True)

    @pytest.mark.parametrize("bound", [CLASSIC, GROUP])
    def test_both_bounds_same_results(self, corpus_db, bound):
        expected = reference_topk(corpus_db, ["cx", "cy"], 5)
        got = engine(corpus_db, bound_mode=bound).search(["cx", "cy"], 5)
        assert [round(r.score, 9) for r in got] == \
            [round(r.score, 9) for r in expected]

    def test_fewer_results_than_k(self, small_db):
        got = engine(small_db).search(["xml", "data"], 50)
        full = reference_topk(small_db, ["xml", "data"], 50)
        assert len(got) == len(full)


class TestEdgeCases:
    def test_k_zero(self, small_db):
        assert len(engine(small_db).search(["xml"], 0)) == 0

    def test_empty_query(self, small_db):
        assert len(engine(small_db).search([], 5)) == 0

    def test_unknown_keyword(self, small_db):
        got = engine(small_db).search(["xml", "zzz"], 5)
        assert len(got) == 0

    def test_invalid_semantics(self, small_db):
        with pytest.raises(ValueError):
            engine(small_db).search(["xml"], 5, "nope")

    def test_single_keyword(self, fig1_db):
        expected = reference_topk(fig1_db, ["data"], 2)
        got = engine(fig1_db).search(["data"], 2)
        assert [round(r.score, 9) for r in got] == \
            [round(r.score, 9) for r in expected]


class TestEarlyTermination:
    def test_correlated_query_terminates_early(self, corpus_db):
        """High correlation -> many results -> the scan must not drain
        every column (the win of Figure 10(b)-(c))."""
        engine = TopKKeywordSearch(corpus_db.columnar_index)
        result = engine.search(["cx", "cy"], 3)
        assert result.terminated_early

    def test_early_termination_reads_fewer_tuples(self, corpus_db):
        engine = TopKKeywordSearch(corpus_db.columnar_index)
        top3 = engine.search(["cx", "cy"], 3)
        everything = engine.search(["cx", "cy"], 10_000)
        assert top3.stats.tuples_scanned < everything.stats.tuples_scanned

    def test_uncorrelated_low_frequency_drains(self, corpus_db):
        """Few results -> the algorithm degenerates to a full scan (the
        regime where Figure 10(a) shows the general join winning)."""
        engine = TopKKeywordSearch(corpus_db.columnar_index)
        result = engine.search(["rare", "gamma"], 10)
        assert not result.terminated_early

    def test_stats_recorded(self, corpus_db):
        result = TopKKeywordSearch(corpus_db.columnar_index).search(
            ["alpha", "beta"], 5)
        assert result.stats.tuples_scanned > 0
        assert result.stats.threshold_checks > 0


class TestWitnesses:
    def test_witness_scores_align_with_terms(self, corpus_db):
        got = engine(corpus_db).search(["cx", "cy"], 3)
        swapped = engine(corpus_db).search(["cy", "cx"], 3)
        for a, b in zip(got, swapped):
            assert a.witness_scores == tuple(reversed(b.witness_scores))

    def test_score_is_sum_of_witnesses(self, corpus_db):
        for r in engine(corpus_db).search(["cx", "cy"], 5):
            assert r.score == pytest.approx(sum(r.witness_scores))
