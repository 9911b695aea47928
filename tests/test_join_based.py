"""Tests for the join-based algorithm (`repro.algorithms.join_based`)."""

import pytest

from repro.algorithms.join_based import JoinBasedSearch
from repro.algorithms.oracle import SemanticsOracle
from repro.planner.plans import JoinPlanner


def engine(db, **kwargs):
    return JoinBasedSearch(db.columnar_index, **kwargs)


class TestAgainstOracle:
    @pytest.mark.parametrize("semantics", ["elca", "slca"])
    def test_small_document(self, small_db, semantics):
        expected = small_db.search("xml data", semantics=semantics,
                                   algorithm="oracle")
        results, _ = engine(small_db).evaluate(["xml", "data"], semantics)
        assert [r.node.dewey for r in results] == \
            [r.node.dewey for r in expected]
        for got, exp in zip(results, expected):
            assert got.score == pytest.approx(exp.score)

    @pytest.mark.parametrize("semantics", ["elca", "slca"])
    def test_figure1_tree(self, fig1_db, semantics):
        expected = fig1_db.search(["xml", "data"], semantics=semantics,
                                  algorithm="oracle")
        results, _ = engine(fig1_db).evaluate(["xml", "data"], semantics)
        assert [r.node.dewey for r in results] == \
            [r.node.dewey for r in expected]

    def test_single_keyword(self, fig1_db):
        expected = fig1_db.search(["data"], algorithm="oracle")
        results, _ = engine(fig1_db).evaluate(["data"], "elca")
        assert [r.node.dewey for r in results] == \
            [r.node.dewey for r in expected]


class TestEdgeCases:
    def test_empty_query(self, small_db):
        results, stats = engine(small_db).evaluate([], "elca")
        assert results == []
        assert stats.levels_processed == 0

    def test_unknown_keyword_short_circuits(self, small_db):
        results, stats = engine(small_db).evaluate(["xml", "zzz"], "elca")
        assert results == []
        assert stats.joins == 0

    def test_invalid_semantics(self, small_db):
        with pytest.raises(ValueError):
            engine(small_db).evaluate(["xml"], "nope")

    def test_without_scores(self, small_db):
        results, _ = engine(small_db).evaluate(["xml", "data"], "elca",
                                               with_scores=False)
        assert all(r.score == 0.0 for r in results)

    def test_repeated_keyword(self, small_db):
        # {w, w} reduces to {w}: same columns joined with themselves.
        single, _ = engine(small_db).evaluate(["xml"], "elca")
        double, _ = engine(small_db).evaluate(["xml", "xml"], "elca")
        assert [r.node.dewey for r in double] == \
            [r.node.dewey for r in single]


class TestConfigurations:
    @pytest.mark.parametrize("policy", ["merge", "index", "dynamic"])
    def test_planner_policies_agree(self, small_db, policy):
        baseline, _ = engine(small_db).evaluate(["xml", "data"], "elca")
        results, stats = engine(
            small_db, planner=JoinPlanner(policy)).evaluate(
            ["xml", "data"], "elca")
        assert [r.node.dewey for r in results] == \
            [r.node.dewey for r in baseline]
        if policy == "merge":
            assert stats.index_joins == 0
        if policy == "index":
            assert stats.merge_joins == 0

    def test_witness_order_follows_caller_terms(self, small_db):
        r1, _ = engine(small_db).evaluate(["xml", "data"], "elca")
        r2, _ = engine(small_db).evaluate(["data", "xml"], "elca")
        for a, b in zip(r1, r2):
            assert a.witness_scores == tuple(reversed(b.witness_scores))
            assert a.score == pytest.approx(b.score)


class TestStats:
    def test_levels_processed_bottom_up(self, small_db):
        _, stats = engine(small_db).evaluate(["xml", "data"], "elca")
        assert stats.levels_processed >= 1
        assert stats.joins >= stats.levels_processed

    def test_erasures_recorded(self, small_db):
        _, stats = engine(small_db).evaluate(["xml", "data"], "elca")
        assert stats.erasures > 0

    def test_per_level_plan_trace(self, small_db):
        planner = JoinPlanner("dynamic")
        _, stats = engine(small_db, planner=planner).evaluate(
            ["xml", "data"], "elca")
        assert stats.per_level_plan
        assert all(plan in ("merge", "index")
                   for _, plan in stats.per_level_plan)


class TestOnCorpora:
    @pytest.mark.parametrize("semantics", ["elca", "slca"])
    def test_planted_terms_match_oracle(self, corpus_db, semantics):
        oracle = SemanticsOracle(corpus_db.tree, corpus_db.inverted_index)
        for terms in (["alpha", "beta"], ["cx", "cy"],
                      ["alpha", "beta", "gamma"]):
            expected = oracle.evaluate(terms, semantics)
            results, _ = engine(corpus_db).evaluate(terms, semantics)
            assert [(r.node.dewey, round(r.score, 9)) for r in results] == \
                [(r.node.dewey, round(r.score, 9)) for r in expected]

    def test_rare_term_fast_path(self, corpus_db):
        results, stats = engine(corpus_db).evaluate(["rare", "gamma"],
                                                    "elca")
        oracle = SemanticsOracle(corpus_db.tree, corpus_db.inverted_index)
        expected = oracle.evaluate(["rare", "gamma"], "elca")
        assert [r.node.dewey for r in results] == \
            [r.node.dewey for r in expected]
