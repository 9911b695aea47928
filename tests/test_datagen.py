"""Tests for the synthetic corpora and workloads (`repro.datagen`)."""

import numpy as np
import pytest

from repro import XMLDatabase
from repro.datagen import (CorrelatedGroup, DBLPGenerator, PlantedTerm,
                           PlantingPlan, TextSource, XMarkGenerator,
                           frequency_ladder)
from repro.datagen.workload import (QuerySpec, WorkloadBuilder,
                                    random_terms_in_range)


class TestTextSource:
    def test_deterministic(self):
        a = TextSource(seed=5).draw([20, 3])
        b = TextSource(seed=5).draw([20, 3])
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(TextSource(seed=5).draw([50]),
                                  TextSource(seed=6).draw([50]))

    def test_zipf_skew(self):
        src = TextSource(seed=1, vocab_size=100)
        counts = np.bincount(src.draw([20_000]), minlength=100)
        # The most frequent word dominates a mid-rank word heavily.
        assert src.words[0] == "w00000"
        assert counts[0] > 5 * max(counts[50], 1)

    def test_vocab_prefix(self):
        src = TextSource(seed=1, vocab_size=10, prefix="zz")
        assert all(src.words[i].startswith("zz") for i in src.draw([100]))

    def test_empty_vocab_raises(self):
        with pytest.raises(ValueError):
            TextSource(seed=1, vocab_size=0)


class TestDBLPGenerator:
    @pytest.mark.parametrize("n_papers", [0, -5])
    def test_invalid_paper_count(self, n_papers):
        with pytest.raises(ValueError, match="n_papers must be positive"):
            DBLPGenerator(n_papers=n_papers)

    def test_deterministic(self):
        t1 = DBLPGenerator(seed=9, n_papers=50).generate()
        t2 = DBLPGenerator(seed=9, n_papers=50).generate()
        assert t1.to_xml() == t2.to_xml()

    def test_structure(self):
        tree = DBLPGenerator(seed=1, n_papers=30, n_conferences=3,
                             n_years=2).generate()
        assert tree.root.tag == "dblp"
        confs = [c for c in tree.root.children if c.tag == "conference"]
        assert len(confs) == 3
        papers = tree.find_all(lambda n: n.tag == "paper")
        assert len(papers) == 30
        for paper in papers:
            tags = [c.tag for c in paper.children]
            assert "title" in tags and "authors" in tags

    def test_paper_depth(self):
        tree = DBLPGenerator(seed=1, n_papers=10).generate()
        paper = tree.find_all(lambda n: n.tag == "paper")[0]
        # dblp / conference / year / paper
        assert paper.level == 4

    def test_abstracts_optional(self):
        with_abs = DBLPGenerator(seed=1, n_papers=10,
                                 abstract_words=20).generate()
        without = DBLPGenerator(seed=1, n_papers=10,
                                abstract_words=0).generate()
        assert with_abs.find_all(lambda n: n.tag == "abstract")
        assert not without.find_all(lambda n: n.tag == "abstract")

    def test_planted_frequency_exact(self):
        plan = PlantingPlan(planted=[PlantedTerm("needle", 17)])
        gen = DBLPGenerator(seed=2, n_papers=100, plan=plan)
        db = XMLDatabase.from_tree(gen.generate())
        assert gen.realized_df["needle"] == 17
        assert db.document_frequency("needle") == 17

    def test_planted_frequency_clamped(self):
        plan = PlantingPlan(planted=[PlantedTerm("needle", 10 ** 6)])
        gen = DBLPGenerator(seed=2, n_papers=20, plan=plan)
        db = XMLDatabase.from_tree(gen.generate())
        assert db.document_frequency("needle") == gen.realized_df["needle"]
        assert gen.realized_df["needle"] <= 20

    def test_correlated_terms_cooccur(self):
        plan = PlantingPlan(correlated=[
            CorrelatedGroup(("qq1", "qq2"), 25, rate=1.0)])
        db = XMLDatabase.from_tree(
            DBLPGenerator(seed=2, n_papers=100, plan=plan).generate())
        # With rate 1.0 both terms land in the same 25 papers, so the
        # two-keyword query has ~25 paper-level results.
        results = db.search(["qq1", "qq2"], semantics="slca")
        assert len(results) == 25


class TestXMarkGenerator:
    def test_deterministic(self):
        t1 = XMarkGenerator(seed=4, scale=0.003).generate()
        t2 = XMarkGenerator(seed=4, scale=0.003).generate()
        assert t1.to_xml() == t2.to_xml()

    def test_structure(self):
        tree = XMarkGenerator(seed=4, scale=0.003).generate()
        assert tree.root.tag == "site"
        top = [c.tag for c in tree.root.children]
        assert top == ["regions", "people", "open_auctions",
                       "closed_auctions", "categories"]

    def test_scale_controls_counts(self):
        small = XMarkGenerator(seed=4, scale=0.002).generate()
        large = XMarkGenerator(seed=4, scale=0.006).generate()
        n_items = lambda t: len(t.find_all(lambda n: n.tag == "item"))
        assert 2 * n_items(small) <= n_items(large)

    def test_deeper_than_dblp(self):
        tree = XMarkGenerator(seed=4, scale=0.002).generate()
        assert tree.depth >= 5

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            XMarkGenerator(scale=0)

    def test_planting(self):
        plan = PlantingPlan(planted=[PlantedTerm("needle", 9)])
        gen = XMarkGenerator(seed=4, scale=0.002, plan=plan)
        db = XMLDatabase.from_tree(gen.generate())
        assert db.document_frequency("needle") == 9


class TestFrequencyLadder:
    def test_names_encode_frequency(self):
        ladder = frequency_ladder([10, 1000], per_step=2)
        names = [p.term for p in ladder]
        assert "kw10-0" in names and "kw1k-1" in names
        assert len(ladder) == 4


class TestWorkloadBuilder:
    @pytest.fixture
    def builder(self):
        return WorkloadBuilder(high_freq=200, low_freqs=(5, 20),
                               per_cell=2, max_keywords=4,
                               correlated_entities=15)

    def test_plan_has_all_terms(self, builder):
        plan = builder.plan()
        terms = plan.all_terms()
        assert "hi200-0" in terms
        assert "lo5-0" in terms and "lo20-7" in terms
        assert "corr0-0" in terms

    def test_frequency_sweep_shape(self, builder):
        queries = builder.frequency_sweep(n_keywords=3)
        assert len(queries) == 2 * 2  # ranges x per_cell
        for q in queries:
            assert q.n_keywords == 3 == len(q.terms)
            assert q.terms[0].startswith("hi")
            assert all(t.startswith("lo") for t in q.terms[1:])

    def test_sweep_keyword_bounds(self, builder):
        with pytest.raises(ValueError):
            builder.frequency_sweep(n_keywords=1)
        with pytest.raises(ValueError):
            builder.frequency_sweep(n_keywords=9)

    def test_equal_frequency(self, builder):
        queries = builder.equal_frequency(n_keywords=4, freq=20)
        for q in queries:
            assert len(q.terms) == 4
            assert all(t.startswith("lo20") for t in q.terms)

    def test_correlated_queries(self, builder):
        queries = builder.correlated_queries()
        sizes = sorted(len(q.terms) for q in queries)
        assert sizes == [2, 2, 3, 3, 4, 5]

    def test_queries_use_distinct_planted_terms(self, builder):
        plan_terms = set(builder.plan().all_terms())
        for q in builder.frequency_sweep(3) + builder.correlated_queries():
            assert set(q.terms) <= plan_terms

    def test_end_to_end_frequencies(self):
        builder = WorkloadBuilder(high_freq=80, low_freqs=(6,), per_cell=1,
                                  max_keywords=3, correlated_entities=10)
        gen = DBLPGenerator(seed=5, n_papers=150, plan=builder.plan())
        db = XMLDatabase.from_tree(gen.generate())
        assert db.document_frequency("hi80-0") == 80
        assert db.document_frequency("lo6-0") == 6


class TestRandomTermsInRange:
    def test_frequencies_within_range(self, dblp_db):
        terms = random_terms_in_range(dblp_db.inverted_index, 5, 50, 8)
        assert terms
        for term in terms:
            assert 5 <= dblp_db.document_frequency(term) <= 50

    def test_planted_terms_excluded(self, dblp_db):
        terms = random_terms_in_range(dblp_db.inverted_index, 1, 10 ** 6,
                                      10 ** 6)
        assert not any(t.startswith(("hi", "lo", "corr")) for t in terms)

    def test_deterministic(self, dblp_db):
        a = random_terms_in_range(dblp_db.inverted_index, 5, 50, 5, seed=3)
        b = random_terms_in_range(dblp_db.inverted_index, 5, 50, 5, seed=3)
        assert a == b


class TestQuerySpec:
    def test_iterable(self):
        q = QuerySpec(("a", "b"), 10, 2)
        assert list(q) == ["a", "b"]
