"""Differential tests: the bulk level check vs the per-candidate one.

`JoinBasedSearch` (bulk `check_level`, bulk scores, result columns)
must be *bit-identical* to the per-candidate reference in
``tests/reference_join.py`` -- same nodes, same levels, same float
scores and witness tuples, same work counters -- on randomized
DBLP/XMark corpora, for both semantics and both eraser modes.  Any
divergence is a bug in the bulk erasure / segment-max / scoring
machinery, not a tolerance question.
"""

import random

import pytest

from repro.algorithms.join_based import JoinBasedSearch
from tests.reference_join import PerCandidateJoinSearch


def fingerprint(results):
    """Everything observable about a result list, exactly."""
    return [(r.node.dewey, r.level, r.score, r.witness_scores)
            for r in results]


def run_pair(db, terms, semantics, eraser_mode, with_scores=True):
    scalar_engine = PerCandidateJoinSearch(db.columnar_index,
                                           eraser_mode=eraser_mode)
    vector_engine = JoinBasedSearch(db.columnar_index,
                                    eraser_mode=eraser_mode)
    scalar, s_stats = scalar_engine.evaluate(terms, semantics,
                                             with_scores=with_scores)
    vector, v_stats = vector_engine.evaluate(terms, semantics,
                                             with_scores=with_scores)
    return scalar, s_stats, vector, v_stats


def random_queries(db, seed, n_queries=12, max_terms=3):
    """Seeded random keyword combinations over the corpus vocabulary,
    biased toward frequent terms so the joins actually produce work."""
    index = db.columnar_index
    vocab = sorted(index.vocabulary,
                   key=lambda t: -index.document_frequency(t))
    frequent = vocab[:40] or vocab
    rng = random.Random(seed)
    queries = []
    for _ in range(n_queries):
        n = rng.randint(1, max_terms)
        queries.append(rng.sample(frequent, min(n, len(frequent))))
    return queries


@pytest.mark.parametrize("semantics", ["elca", "slca"])
@pytest.mark.parametrize("eraser_mode", ["bitmap", "interval"])
class TestRandomizedCorpora:
    def test_planted_queries_identical(self, corpus_db, semantics,
                                       eraser_mode):
        for terms in (["alpha", "beta"], ["cx", "cy"],
                      ["alpha", "beta", "gamma"], ["rare", "gamma"],
                      ["gamma"]):
            scalar, s_stats, vector, v_stats = run_pair(
                corpus_db, terms, semantics, eraser_mode)
            assert fingerprint(scalar) == fingerprint(vector)
            assert s_stats.as_dict() == v_stats.as_dict()

    def test_random_queries_identical(self, corpus_db, semantics,
                                      eraser_mode):
        for terms in random_queries(corpus_db, seed=1234):
            scalar, s_stats, vector, v_stats = run_pair(
                corpus_db, terms, semantics, eraser_mode)
            assert fingerprint(scalar) == fingerprint(vector), terms
            assert s_stats.as_dict() == v_stats.as_dict(), terms

    def test_without_scores_identical(self, corpus_db, semantics,
                                      eraser_mode):
        scalar, _, vector, _ = run_pair(corpus_db, ["alpha", "beta"],
                                        semantics, eraser_mode,
                                        with_scores=False)
        assert fingerprint(scalar) == fingerprint(vector)
        assert all(r.score == 0.0 for r in vector)


@pytest.mark.parametrize("semantics", ["elca", "slca"])
class TestSmallDocuments:
    def test_small_db(self, small_db, semantics):
        scalar, s_stats, vector, v_stats = run_pair(
            small_db, ["xml", "data"], semantics, "bitmap")
        assert fingerprint(scalar) == fingerprint(vector)
        assert s_stats.as_dict() == v_stats.as_dict()

    def test_fig1(self, fig1_db, semantics):
        scalar, _, vector, _ = run_pair(fig1_db, ["xml", "data"],
                                        semantics, "interval")
        assert fingerprint(scalar) == fingerprint(vector)

    def test_repeated_keyword(self, small_db, semantics):
        scalar, _, vector, _ = run_pair(small_db, ["xml", "xml"],
                                        semantics, "bitmap")
        assert fingerprint(scalar) == fingerprint(vector)
