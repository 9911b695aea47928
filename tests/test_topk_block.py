"""Differential tests for the block-at-a-time top-K engine.

Three independent accounts of a top-K answer must agree: the block
engine in `src/` (`TopKKeywordSearch` over `BlockStarJoin` and the
single per-term score order), the per-tuple engine it replaced
(`tests/reference_topk.py`) and the naive `SemanticsOracle`.  The ranked
input a level serves is compared with the reference `ColumnCursor`'s pop
sequence directly, and the work counter is held to the block over-read
bound.
"""

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import XMLDatabase
from repro.algorithms import topk_join as block_module
from repro.algorithms.erasure import make_eraser
from repro.algorithms.oracle import SemanticsOracle
from repro.algorithms.topk_join import CLASSIC, GROUP
from repro.algorithms.topk_keyword import TopKKeywordSearch
from repro.index.columnar import ColumnarPostings
from repro.index.scored import ScoredPostings
from repro.scoring.ranking import (DampingFunction, MaxCombiner,
                                   RankingModel, SumCombiner,
                                   WeightedSumCombiner)
from repro.xmltree.tree import Node, XMLTree
from tests.reference_topk import (GroupedScoredPostings, PerTupleTopKSearch,
                                  erased_probe)

KEYWORDS = ["kx", "ky", "kz"]
COMBINERS = {
    "sum": lambda n: SumCombiner(),
    "weighted": lambda n: WeightedSumCombiner([2.0, 0.5, 1.25][:n]),
    "max": lambda n: MaxCombiner(),
}


@st.composite
def stacked_tree(draw):
    """A random tree that repeats one of its subtrees verbatim (the
    duplicate subtrees Böttcher et al. find throughout DBLP and XMark)
    and carries keywords on inner nodes as readily as on leaves, so an
    ancestor and its descendant hold the same keyword at once."""
    words = st.lists(st.sampled_from(KEYWORDS + ["noise"]), max_size=3)
    spec = st.recursive(
        st.tuples(words, st.just([])),
        lambda c: st.tuples(words, st.lists(c, min_size=1, max_size=3)),
        max_leaves=10)
    repeated = draw(spec)
    top_words = draw(words)
    siblings = draw(st.lists(spec, max_size=3))
    copies = draw(st.integers(2, 4))

    def build(node_spec):
        text, children = node_spec
        node = Node("n", " ".join(text))
        for child in children:
            node.add_child(build(child))
        return node

    root = Node("r", " ".join(top_words))
    for node_spec in [repeated] * copies + siblings:
        root.add_child(build(node_spec))
    return XMLTree(root).freeze()


query_terms = st.lists(st.sampled_from(KEYWORDS), min_size=1, max_size=3,
                       unique=True)


def scores_of(results):
    return [round(r.score, 9) for r in results]


@pytest.fixture(params=[1, 3, 16], ids=lambda b: f"block{b}")
def block_start(request, monkeypatch):
    """Generated trees are small; starting blocks below 16 makes them
    span several blocks per level."""
    monkeypatch.setattr(block_module, "BLOCK_START", request.param)
    return request.param


class TestEnginesAgree:
    @pytest.mark.parametrize("combiner", sorted(COMBINERS))
    @pytest.mark.parametrize("bound_mode", [GROUP, CLASSIC])
    @pytest.mark.parametrize("semantics", ["elca", "slca"])
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.function_scoped_fixture])
    @given(tree=stacked_tree(), terms=query_terms,
           base=st.sampled_from([0.5, 0.9, 1.0]))
    def test_block_equals_per_tuple_equals_oracle(
            self, block_start, semantics, bound_mode, combiner, tree, terms,
            base):
        ranking = RankingModel(damping=DampingFunction(base),
                               combiner=COMBINERS[combiner](len(terms)))
        db = XMLDatabase.from_tree(tree, ranking=ranking)
        oracle = SemanticsOracle(db.tree, db.inverted_index, ranking)
        expected = sorted(scores_of(oracle.evaluate(terms, semantics)),
                          reverse=True)
        block = TopKKeywordSearch(db.columnar_index, bound_mode)
        per_tuple = PerTupleTopKSearch(db.columnar_index, bound_mode)
        for k in (1, 3, 10, len(expected) + 1):
            got = block.search(terms, k, semantics)
            ref = per_tuple.search(terms, k, semantics)
            assert scores_of(got) == expected[:k]
            assert scores_of(ref) == expected[:k]
            for result in got:
                assert result.score == \
                    ranking.score_result(result.witness_scores)
        streamed = [r.score for r in block.stream(terms, semantics)]
        assert streamed == sorted(streamed, reverse=True)
        assert scores_of(block.stream(terms, semantics)) == expected

    @pytest.mark.parametrize("semantics", ["elca", "slca"])
    @pytest.mark.parametrize("terms", [
        ["alpha", "beta"], ["cx", "cy"], ["alpha", "beta", "gamma"],
        ["c3a", "c3b", "c3c"], ["rare", "gamma"], ["gamma", "cx"],
    ], ids="-".join)
    def test_corpus_results_and_work(self, corpus_db, semantics, terms):
        """On the generated corpora: same top-K as the per-tuple engine
        at every k, and no more tuples than the over-read bound allows
        -- a cursor doubles its block, so it reads less than twice what
        the reference needed, plus its first block, per level."""
        index = corpus_db.columnar_index
        for bound_mode, k in itertools.product((GROUP, CLASSIC),
                                               (1, 3, 10, 10_000)):
            got = TopKKeywordSearch(index, bound_mode).search(
                terms, k, semantics)
            ref = PerTupleTopKSearch(index, bound_mode).search(
                terms, k, semantics)
            assert scores_of(got) == scores_of(ref)
            slack = 16 * len(terms) * max(1, ref.stats.levels_processed)
            assert got.stats.tuples_scanned <= \
                2 * ref.stats.tuples_scanned + slack
            if not (got.terminated_early or ref.terminated_early):
                assert got.stats.erasures == ref.stats.erasures

    @pytest.mark.parametrize("eraser_mode", ["interval", "roaring"])
    def test_eraser_modes_agree(self, dblp_db, eraser_mode):
        index = dblp_db.columnar_index
        for terms, semantics in itertools.product(
                (["cx", "cy"], ["alpha", "beta", "gamma"]),
                ("elca", "slca")):
            bitmap = TopKKeywordSearch(index).search(terms, 7, semantics)
            other = TopKKeywordSearch(
                index, eraser_mode=eraser_mode).search(terms, 7, semantics)
            assert scores_of(other) == scores_of(bitmap)
            assert other.stats.tuples_scanned == bitmap.stats.tuples_scanned

    def test_counts_repeat_exactly(self, dblp_db):
        engine = TopKKeywordSearch(dblp_db.columnar_index)
        first = engine.search(["cx", "cy"], 5).stats
        again = engine.search(["cx", "cy"], 5).stats
        assert first.tuples_scanned == again.tuples_scanned > 0
        assert first.threshold_checks == again.threshold_checks


@st.composite
def scored_term(draw):
    """One term's postings with random lengths and scores (ties on
    purpose), plus nested erasure marks over its ordinals."""
    depth = draw(st.integers(1, 5))
    n = draw(st.integers(1, 40))
    lengths = draw(st.lists(st.integers(1, depth), min_size=n, max_size=n))
    raw = draw(st.lists(st.sampled_from([0.1, 0.25, 0.3, 0.5, 0.5, 1.0, 2.0]),
                        min_size=n, max_size=n))
    # JDewey-like sequences: a few numbers per level, so columns have
    # runs; sorting makes every column ordered.
    seqs = sorted(tuple(draw(st.integers(1, 4)) + 10 * level
                        for level in range(length)) for length in lengths)
    marks = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(1, 4)), max_size=3))
    return ColumnarPostings("t", seqs, raw), marks


class TestRankedInput:
    @pytest.mark.parametrize("base", [0.5, 0.9, 1.0])
    @settings(max_examples=60, deadline=None)
    @given(case=scored_term())
    def test_ranked_equals_cursor_pop_sequence(self, base, case):
        postings, marks = case
        eraser = make_eraser("bitmap", len(postings))
        for lo, width in marks:
            eraser.mark(lo, min(len(postings), lo + width))
        scored = ScoredPostings(postings, base)
        grouped = GroupedScoredPostings(postings, base)
        for level in range(1, postings.max_len + 2):
            numbers, scores = scored.ranked(level, eraser)
            assert np.all(scores[1:] <= scores[:-1])
            cursor = grouped.cursor(level, skip=erased_probe(eraser))
            popped = []
            while (item := cursor.pop()) is not None:
                popped.append((item[0], item[2]))
            got = sorted(zip(numbers.tolist(), scores.tolist()))
            assert [n for n, _ in got] == [n for n, _ in sorted(popped)]
            assert [s for _, s in got] == pytest.approx(
                [s for _, s in sorted(popped)], rel=1e-12)
            if len(scores):
                assert scored.max_damped(level) >= scores[0]

    def test_order_that_rounding_broke_is_resorted(self, dblp_db):
        """`ranked` checks what it serves: hand it a per-term order that
        does not descend and the array still does, with the same
        tuples; the search over it is unchanged."""
        index = dblp_db.columnar_index
        expected = scores_of(TopKKeywordSearch(index).search(
            ["cx", "cy"], 5))
        for term in ("cx", "cy"):
            postings = index.term_postings(term)
            scored = ScoredPostings(postings, index.ranking.damping.base)
            good = scored.ranked(2)
            base, order, *rest = postings._score_order
            postings._score_order = (base, order[::-1].copy(), *rest)
            try:
                broken = ScoredPostings(postings, base)
                assert broken.order[0] == order[-1]
                numbers, scores = broken.ranked(2)
                assert np.all(scores[1:] <= scores[:-1])
                assert scores.tolist() == good[1].tolist()
                assert sorted(numbers.tolist()) == sorted(good[0].tolist())
                assert scores_of(TopKKeywordSearch(index).search(
                    ["cx", "cy"], 5)) == expected
            finally:
                postings._score_order = (base, order, *rest)


class TestEmissionIsSound:
    def test_emitted_only_at_or_above_the_live_bound(self, dblp_db,
                                                     monkeypatch):
        """Every result leaves `_TopKRun.harvest` with a score >= the
        join threshold and the cross-level bound it was handed, and
        nothing emitted later outscores it."""
        from repro.algorithms import topk_keyword

        bounds = []
        original = topk_keyword._TopKRun.harvest

        def spying(run, join, level, columns, below):
            results = original(run, join, level, columns, below)
            if results:
                bounds.append((max(join.threshold(), below),
                               [r.score for r in results]))
            return results

        monkeypatch.setattr(topk_keyword._TopKRun, "harvest", spying)
        engine = TopKKeywordSearch(dblp_db.columnar_index)
        emitted = [r.score for r in engine.stream(["gamma", "beta"])]
        assert bounds, "no result was emitted before its level drained"
        for bound, scores in bounds:
            assert min(scores) >= bound
        assert emitted == sorted(emitted, reverse=True)
