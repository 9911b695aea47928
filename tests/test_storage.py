"""Tests for on-disk formats and Table I size accounting."""

import pytest

from repro.index.columnar import ColumnarIndex
from repro.index.inverted import InvertedIndex
from repro.index import storage
from repro.index.lazydisk import LazyColumnarIndex
from repro.index.tokenizer import Tokenizer
from repro.xmltree.jdewey import encode_tree
from repro.xmltree.tree import build_tree


@pytest.fixture
def tree():
    t = build_tree(
        ("bib", [
            ("book", [
                ("title", "xml basics and xml tricks", []),
                ("chapter", [
                    ("section", "xml intro", []),
                    ("section", "data and xml data", []),
                ]),
            ]),
            ("article", "keyword data search", []),
        ]))
    encode_tree(t)
    return t


@pytest.fixture
def columnar(tree):
    return ColumnarIndex(tree, tokenizer=Tokenizer(stopwords=()))


@pytest.fixture
def inverted(tree):
    return InvertedIndex(tree, tokenizer=Tokenizer(stopwords=()))


class TestColumnarRoundtrip:
    def test_index_roundtrip(self, columnar):
        blob = storage.serialize_columnar_index(columnar)
        loaded = LazyColumnarIndex(blob, columnar.nodes)
        assert loaded.vocabulary == columnar.vocabulary
        for term in loaded.vocabulary:
            assert loaded.term_postings(term).seqs == \
                columnar.term_postings(term).seqs

    def test_index_wrong_magic_raises(self, columnar):
        with pytest.raises(ValueError):
            LazyColumnarIndex(b"XXXXgarbage", columnar.nodes)

    def test_scores_flag_affects_size(self, columnar):
        postings = columnar.term_postings("xml")
        plain = storage.serialize_columnar_postings(postings)
        scored = storage.serialize_columnar_postings(postings,
                                                     with_scores=True)
        assert len(scored) == len(plain) + 2 * len(postings)


class TestDeweyRoundtrip:
    def test_prefix_compression_helps_on_clustered_lists(self, inverted):
        # "xml" postings share long prefixes; the modelled size should
        # be well below storing every full Dewey id.
        plist = inverted.term_list("xml")
        naive = sum(2 * len(p.dewey) for p in plist.postings) + 20
        assert storage.dewey_list_size(plist) <= naive


class TestSizeReport:
    def test_report_has_all_rows(self, columnar, inverted):
        report = storage.measure_sizes(columnar, inverted)
        rows = dict(report.as_rows())
        assert set(rows) == {
            "join-based IL", "join-based sparse", "stack-based IL",
            "index-based B-tree", "top-K join IL", "RDIL IL", "RDIL B-tree",
        }
        assert all(size > 0 for size in rows.values())

    def test_paper_shape_index_based_is_largest(self, columnar, inverted):
        """Table I: the (keyword, Dewey) B-tree dwarfs both IL formats."""
        report = storage.measure_sizes(columnar, inverted)
        assert report.index_based_btree > report.stack_based_il
        assert report.index_based_btree > report.join_based_il

    def test_paper_shape_topk_il_slightly_larger(self, columnar, inverted):
        """Table I: the score-augmented IL adds modest overhead."""
        report = storage.measure_sizes(columnar, inverted)
        assert report.topk_join_il > report.join_based_il
        assert report.topk_join_il < 2 * report.join_based_il

    def test_rdil_equals_stack_plus_btree(self, columnar, inverted):
        report = storage.measure_sizes(columnar, inverted)
        assert report.rdil_il == report.stack_based_il
        assert report.rdil_btree > 0

    def test_per_term_sizes_sum_to_total(self, columnar, inverted):
        report = storage.measure_sizes(columnar, inverted)
        assert sum(report.per_term.values()) == report.join_based_il
