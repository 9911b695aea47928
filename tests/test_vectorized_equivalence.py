"""Differential tests: the bulk level check vs the per-candidate one.

`JoinBasedSearch` (bulk `check_level` against one query-wide bitmap
eraser, bulk scores, result columns) must be *bit-identical* to the
per-candidate reference in ``tests/reference_join.py`` (one section
III-E interval eraser per term, ``tests/reference_erasure.py``) -- same
nodes, same levels, same float scores and witness tuples, same work
counters -- on randomized DBLP/XMark corpora, for both semantics.  Any
divergence is a bug in the bulk erasure / segment-max / scoring
machinery, not a tolerance question.  A level is one call each way into
the eraser, whatever k.
"""

import random

import pytest

from repro.algorithms import join_based
from repro.algorithms.erasure import BitmapEraser
from repro.algorithms.join_based import JoinBasedSearch, LevelRun
from tests.reference_join import PerCandidateJoinSearch


def fingerprint(results):
    """Everything observable about a result list, exactly."""
    return [(r.node.dewey, r.level, r.score, r.witness_scores)
            for r in results]


def run_pair(db, terms, semantics, with_scores=True):
    scalar_engine = PerCandidateJoinSearch(db.columnar_index)
    vector_engine = JoinBasedSearch(db.columnar_index)
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
class TestRandomizedCorpora:
    def test_planted_queries_identical(self, corpus_db, semantics):
        for terms in (["alpha", "beta"], ["cx", "cy"],
                      ["alpha", "beta", "gamma"], ["rare", "gamma"],
                      ["gamma"]):
            scalar, s_stats, vector, v_stats = run_pair(
                corpus_db, terms, semantics)
            assert fingerprint(scalar) == fingerprint(vector)
            assert s_stats.as_dict() == v_stats.as_dict()

    def test_random_queries_identical(self, corpus_db, semantics):
        for terms in random_queries(corpus_db, seed=1234):
            scalar, s_stats, vector, v_stats = run_pair(
                corpus_db, terms, semantics)
            assert fingerprint(scalar) == fingerprint(vector), terms
            assert s_stats.as_dict() == v_stats.as_dict(), terms

    def test_without_scores_identical(self, corpus_db, semantics):
        scalar, _, vector, _ = run_pair(corpus_db, ["alpha", "beta"],
                                        semantics, with_scores=False)
        assert fingerprint(scalar) == fingerprint(vector)
        assert all(r.score == 0.0 for r in vector)


@pytest.mark.parametrize("semantics", ["elca", "slca"])
def test_one_eraser_call_each_way_per_level(dblp_db, monkeypatch,
                                            semantics):
    """On a 4-term query that joins at every level: one eraser per query,
    one `erased_counts` per processed level and one `mark_many` per
    processed level above level 1 -- not one per term."""
    terms = ["c3a", "c3b", "c3c", "gamma"]
    calls = {"erasers": 0, "erased_counts": 0, "mark_many": 0}

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    for method in ("erased_counts", "mark_many"):
        monkeypatch.setattr(BitmapEraser, method,
                            counting(method, getattr(BitmapEraser, method)))
    monkeypatch.setattr(join_based, "BitmapEraser",
                        counting("erasers", join_based.BitmapEraser))
    joined_at = []
    join_level = LevelRun.join_level

    def recording(run, level, columns):
        joined = join_level(run, level, columns)
        joined_at.append((level, len(joined)))
        return joined

    monkeypatch.setattr(LevelRun, "join_level", recording)
    results, stats = JoinBasedSearch(dblp_db.columnar_index).evaluate(
        terms, semantics)
    assert results
    levels = [level for level, n in joined_at if n]
    assert len(levels) == stats.levels_processed == 5
    assert calls == {"erasers": 1, "erased_counts": len(levels),
                     "mark_many": len(levels) - 1}


@pytest.mark.parametrize("semantics", ["elca", "slca"])
class TestSmallDocuments:
    def test_small_db(self, small_db, semantics):
        scalar, s_stats, vector, v_stats = run_pair(
            small_db, ["xml", "data"], semantics)
        assert fingerprint(scalar) == fingerprint(vector)
        assert s_stats.as_dict() == v_stats.as_dict()

    def test_fig1(self, fig1_db, semantics):
        scalar, _, vector, _ = run_pair(fig1_db, ["xml", "data"],
                                        semantics)
        assert fingerprint(scalar) == fingerprint(vector)

    def test_repeated_keyword(self, small_db, semantics):
        scalar, _, vector, _ = run_pair(small_db, ["xml", "xml"],
                                        semantics)
        assert fingerprint(scalar) == fingerprint(vector)
