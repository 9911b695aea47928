"""Tests for the stack-based and index-based baselines."""

import pytest

from repro.algorithms.index_based import IndexBasedSearch
from repro.algorithms.oracle import SemanticsOracle
from repro.algorithms.stack_based import StackBasedSearch


@pytest.fixture(params=["stack", "index"])
def baseline_cls(request):
    return {"stack": StackBasedSearch, "index": IndexBasedSearch}[
        request.param]


class TestAgainstOracle:
    @pytest.mark.parametrize("semantics", ["elca", "slca"])
    def test_small_document(self, small_db, baseline_cls, semantics):
        expected = small_db.search("xml data", semantics=semantics,
                                   algorithm="oracle")
        results, _ = baseline_cls(small_db.inverted_index).evaluate(
            ["xml", "data"], semantics)
        assert [(r.node.dewey, round(r.score, 9)) for r in results] == \
            [(r.node.dewey, round(r.score, 9)) for r in expected]

    @pytest.mark.parametrize("semantics", ["elca", "slca"])
    def test_figure1_tree(self, fig1_db, baseline_cls, semantics):
        expected = fig1_db.search(["xml", "data"], semantics=semantics,
                                  algorithm="oracle")
        results, _ = baseline_cls(fig1_db.inverted_index).evaluate(
            ["xml", "data"], semantics)
        assert [(r.node.dewey, round(r.score, 9)) for r in results] == \
            [(r.node.dewey, round(r.score, 9)) for r in expected]

    @pytest.mark.parametrize("semantics", ["elca", "slca"])
    def test_three_keywords_on_corpus(self, corpus_db, baseline_cls,
                                      semantics):
        oracle = SemanticsOracle(corpus_db.tree, corpus_db.inverted_index)
        terms = ["alpha", "beta", "gamma"]
        expected = oracle.evaluate(terms, semantics)
        results, _ = baseline_cls(corpus_db.inverted_index).evaluate(
            terms, semantics)
        assert [(r.node.dewey, round(r.score, 9)) for r in results] == \
            [(r.node.dewey, round(r.score, 9)) for r in expected]

    def test_single_keyword(self, fig1_db, baseline_cls):
        expected = fig1_db.search(["data"], algorithm="oracle")
        results, _ = baseline_cls(fig1_db.inverted_index).evaluate(
            ["data"], "elca")
        assert [r.node.dewey for r in results] == \
            [r.node.dewey for r in expected]


class TestEdgeCases:
    def test_empty_query(self, small_db, baseline_cls):
        results, _ = baseline_cls(small_db.inverted_index).evaluate(
            [], "elca")
        assert results == []

    def test_unknown_keyword(self, small_db, baseline_cls):
        results, _ = baseline_cls(small_db.inverted_index).evaluate(
            ["xml", "zzz"], "elca")
        assert results == []

    def test_invalid_semantics(self, small_db, baseline_cls):
        with pytest.raises(ValueError):
            baseline_cls(small_db.inverted_index).evaluate(["xml"], "nope")


class TestStackCharacteristics:
    def test_scans_every_posting(self, corpus_db):
        """The paper's observation: the stack sweep always reads every
        list completely, so work tracks the *highest* frequency."""
        inv = corpus_db.inverted_index
        _, stats = StackBasedSearch(inv).evaluate(["rare", "gamma"], "elca")
        total = (inv.document_frequency("rare")
                 + inv.document_frequency("gamma"))
        assert stats.tuples_scanned == total

    def test_without_scores(self, small_db):
        results, _ = StackBasedSearch(small_db.inverted_index).evaluate(
            ["xml", "data"], "elca", with_scores=False)
        assert all(r.score == 0.0 for r in results)


class TestIndexCharacteristics:
    def test_work_tracks_shortest_list(self, corpus_db):
        """The index-based driver scans only the shortest list."""
        inv = corpus_db.inverted_index
        _, stats = IndexBasedSearch(inv).evaluate(["rare", "gamma"], "elca")
        assert stats.tuples_scanned == inv.document_frequency("rare")

    def test_lookup_counter_positive(self, corpus_db):
        _, stats = IndexBasedSearch(corpus_db.inverted_index).evaluate(
            ["alpha", "beta"], "elca")
        assert stats.lookups > 0


class TestProbesCostPerChildNotPerTable:
    """The stack and index engines reach children through
    `NodeTable._child_rows`; a lookup must cost the children it returns,
    not the table it searches.  Timing-free: the tracemalloc peak of
    1 000 lookups is the same on a table ten times larger."""

    @staticmethod
    def _lookup_peak(n_papers):
        import tracemalloc

        from repro import XMLDatabase

        table = XMLDatabase.generate_dblp(
            seed=7, n_papers=n_papers).columnar_index.nodes
        table._child_rows(0)        # the child order, built once
        step = max(1, table.n_nodes // 1000)
        rows = list(range(0, table.n_nodes, step))[:1000]
        tracemalloc.start()
        try:
            for row in rows:
                table._child_rows(row)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return table.n_nodes, peak

    def test_child_lookup_allocates_nothing_per_table_node(self):
        small_nodes, small = self._lookup_peak(2_000)
        large_nodes, large = self._lookup_peak(20_000)
        assert large_nodes >= 9 * small_nodes
        # Casting the parent column costs 8 B a node a call: ~1 MB here.
        assert large - small < 64 * 1024, (small, large)
