"""Tests for the RDIL baseline and the hybrid plan (sections II-C, V-D)."""

import pytest

from repro.algorithms.base import sort_by_score
from repro.algorithms.hybrid import HybridTopKSearch
from repro.algorithms.join_based import JoinBasedSearch
from repro.algorithms.oracle import SemanticsOracle
from repro.algorithms.rdil import RDILSearch
from repro.algorithms.topk_keyword import TopKKeywordSearch
from repro.obs import Tracer
from repro.reliability import Deadline, DeadlineExceeded
from tests.conftest import StepClock


def join_sizes(db, terms):
    """How many numbers join at each processed level, bottom-up."""
    sizes = []
    JoinBasedSearch(db.columnar_index).evaluate(
        terms, observer=lambda level, columns, joined, emitted:
        sizes.append(len(joined)))
    return sizes


def reference_topk(db, terms, k, semantics="elca"):
    oracle = SemanticsOracle(db.tree, db.inverted_index)
    return sort_by_score(oracle.evaluate(terms, semantics))[:k]


class TestRDILCorrectness:
    @pytest.mark.parametrize("semantics", ["elca", "slca"])
    @pytest.mark.parametrize("terms", [
        ["alpha", "beta"], ["cx", "cy"], ["alpha", "beta", "gamma"],
        ["rare", "gamma"],
    ])
    def test_matches_reference(self, corpus_db, semantics, terms):
        expected = reference_topk(corpus_db, terms, 10, semantics)
        got = RDILSearch(corpus_db.inverted_index).search(terms, 10,
                                                          semantics)
        assert [round(r.score, 9) for r in got] == \
            [round(r.score, 9) for r in expected]

    def test_small_document(self, small_db):
        expected = reference_topk(small_db, ["xml", "data"], 3)
        got = RDILSearch(small_db.inverted_index).search(["xml", "data"], 3)
        assert [round(r.score, 9) for r in got] == \
            [round(r.score, 9) for r in expected]

    def test_k_zero(self, small_db):
        assert len(RDILSearch(small_db.inverted_index).search(["xml"],
                                                              0)) == 0

    def test_unknown_keyword(self, small_db):
        got = RDILSearch(small_db.inverted_index).search(["xml", "zzz"], 5)
        assert len(got) == 0

    def test_invalid_semantics(self, small_db):
        with pytest.raises(ValueError):
            RDILSearch(small_db.inverted_index).search(["xml"], 5, "nope")


class TestRDILCharacteristics:
    def test_scan_bounded_by_shortest_list(self, corpus_db):
        """RDIL stops once any list dries (paper section V-C)."""
        inv = corpus_db.inverted_index
        result = RDILSearch(inv).search(["rare", "gamma"], 1000)
        k = 2
        shortest = inv.document_frequency("rare")
        assert result.stats.tuples_scanned <= k * shortest + k

    def test_verification_lookups_counted(self, corpus_db):
        result = RDILSearch(corpus_db.inverted_index).search(
            ["alpha", "beta"], 5)
        assert result.stats.lookups > 0
        assert result.stats.candidates_checked > 0


class TestHybridCorrectness:
    @pytest.mark.parametrize("semantics", ["elca", "slca"])
    @pytest.mark.parametrize("terms", [
        ["alpha", "beta"], ["cx", "cy"], ["c3a", "c3b", "c3c"],
        ["rare", "gamma"],
    ])
    def test_matches_reference(self, corpus_db, semantics, terms):
        expected = reference_topk(corpus_db, terms, 10, semantics)
        got = HybridTopKSearch(corpus_db.columnar_index).search(
            terms, 10, semantics)
        assert [round(r.score, 9) for r in got] == \
            [round(r.score, 9) for r in expected]

    def test_low_cardinality_prefers_eager(self, corpus_db):
        """Scarce results -> the rank join is avoided: every level the
        hybrid processes is checked, scored and erased in bulk."""
        tracer = Tracer()
        with tracer.span("query"):
            HybridTopKSearch(corpus_db.columnar_index, tracer=tracer).search(
                ["rare", "gamma"], 10)
        names = [s.name for s in tracer.last_root().walk()]
        assert "score" in names and "rank_join" not in names

    def test_both_plans_match_the_reference(self, corpus_db):
        """The plan is fixed by the name: ``hybrid`` finishes every level
        in bulk, ``topk-join`` rank-joins every level something joins
        at; the answers are the same."""
        index = corpus_db.columnar_index
        for terms in (["cx", "cy"], ["rare", "gamma"]):
            expected = reference_topk(corpus_db, terms, 5)
            sizes = join_sizes(corpus_db, terms)
            for engine_class in (HybridTopKSearch, TopKKeywordSearch):
                tracer = Tracer()
                with tracer.span("query"):
                    got = engine_class(index, tracer=tracer).search(terms, 5)
                assert [round(r.score, 9) for r in got] == \
                    [round(r.score, 9) for r in expected]
                spans = list(tracer.last_root().walk())
                ranked = [s for s in spans if s.name == "rank_join"]
                joins = [s.tags["output"] for s in spans if s.name == "join"]
                assert joins == sizes[:len(joins)]
                if engine_class is HybridTopKSearch:
                    assert not ranked
                else:
                    assert len(ranked) == sum(1 for n in joins if n) > 0

    def test_k_zero(self, small_db):
        engine = HybridTopKSearch(small_db.columnar_index)
        assert len(engine.search(["xml"], 0)) == 0


class TestHybridDeadline:
    """`search_topk(algorithm="hybrid")`, the default, enforces the query
    budget like the ``topk-join`` and ``join`` paths do."""

    def test_raise_policy_raises(self, dblp_db):
        for algorithm in ("hybrid", "topk-join", "join"):
            with pytest.raises(DeadlineExceeded):
                dblp_db.search_topk("gamma beta", 5, algorithm=algorithm,
                                    timeout_ms=0, on_deadline="raise")

    def test_partial_is_flagged_and_bounded(self, dblp_db):
        full = dblp_db.search_topk("gamma beta", 10_000,
                                   algorithm="hybrid")
        assert len(full) > 5 and not full.partial
        spent = dblp_db.search_topk("gamma beta", 5, algorithm="hybrid",
                                    timeout_ms=0, on_deadline="partial")
        assert spent.partial and spent.stats.partial
        # A prefix of the unbudgeted answer (here: nothing yet), and a
        # bound nothing unreturned exceeds.
        assert list(spent) == list(full)[:len(spent)]
        assert all(r.score <= spent.bound for r in list(full)[len(spent):])

    def test_mid_run_partial_is_a_sound_prefix(self, dblp_db):
        """Cut at every few polls: the hybrid polls once per level, the
        rank join after every block as well; either way a prefix."""
        terms = ["gamma", "beta"]
        for engine in (HybridTopKSearch(dblp_db.columnar_index),
                       TopKKeywordSearch(dblp_db.columnar_index)):
            full = [(r.node.dewey, r.score)
                    for r in engine.search(terms, 10_000)]
            partials = 0
            for budget in (1.5, 3, 6, 12, 24, 48):
                result = engine.search(
                    terms, len(full) + 1, deadline=Deadline(
                        timeout_ms=budget, on_deadline="partial",
                        clock=StepClock(0.001)))
                got = [(r.node.dewey, r.score) for r in result]
                assert got == full[:len(got)]
                if result.partial:
                    partials += 1
                    assert all(score <= result.bound + 1e-9
                               for _dewey, score in full[len(got):])
            assert partials
