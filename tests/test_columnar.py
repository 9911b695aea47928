"""Tests for the columnar JDewey index (`repro.index.columnar`)."""

import numpy as np
import pytest

from repro.index.columnar import ColumnarIndex, ColumnarPostings
from repro.index.tokenizer import Tokenizer
from repro.xmltree.jdewey import encode_tree
from repro.xmltree.tree import build_tree


@pytest.fixture
def tree():
    t = build_tree(
        ("bib", [
            ("book", [
                ("title", "xml basics", []),
                ("chapter", [
                    ("section", "xml intro", []),
                    ("section", "data and xml data", []),
                ]),
            ]),
            ("article", "keyword data", []),
        ]))
    encode_tree(t)
    return t


@pytest.fixture
def index(tree):
    return ColumnarIndex(tree, tokenizer=Tokenizer(stopwords=()))


class TestBuild:
    def test_requires_jdewey(self):
        bare = build_tree(("a", "xml", []))
        with pytest.raises(ValueError):
            ColumnarIndex(bare)

    def test_document_frequency(self, index):
        assert index.document_frequency("xml") == 3
        assert index.document_frequency("nope") == 0

    def test_sequences_sorted(self, index):
        seqs = index.term_postings("xml").seqs
        assert seqs == sorted(seqs)

    def test_max_len(self, index):
        assert index.term_postings("xml").max_len == 4
        assert index.term_postings("keyword").max_len == 2

    def test_scores_aligned_with_seqs(self, index, tree):
        postings = index.term_postings("data")
        assert len(postings.scores) == len(postings.seqs)
        assert all(s > 0 for s in postings.scores)

    def test_unknown_term_empty(self, index):
        postings = index.term_postings("nope")
        assert len(postings) == 0
        assert postings.max_len == 0

    def test_node_at_roundtrip(self, index, tree):
        for node in tree.nodes:
            got = index.node_at(node.level, node.jdewey[-1])
            assert (got.row, got.dewey, got.tag) == \
                (node.row, node.dewey, node.tag)

    def test_query_postings_shortest_first(self, index):
        ordered = index.query_postings(["xml", "keyword", "data"])
        sizes = [len(p) for p in ordered]
        assert sizes == sorted(sizes)


class TestColumns:
    def test_column_values_sorted(self, index):
        postings = index.term_postings("xml")
        for level in range(1, postings.max_len + 1):
            values = postings.column(level).values
            assert np.all(values[:-1] <= values[1:])

    def test_column_level_filter(self, index):
        postings = index.term_postings("xml")
        col4 = postings.column(4)
        # Only the two section occurrences reach level 4.
        assert len(col4) == 2

    def test_column_beyond_max_len_empty(self, index):
        postings = index.term_postings("keyword")
        assert len(postings.column(5)) == 0

    def test_column_level_zero_raises(self, index):
        with pytest.raises(ValueError):
            index.term_postings("xml").column(0)

    def test_column_cached(self, index):
        postings = index.term_postings("xml")
        assert postings.column(2) is postings.column(2)

    def test_columns_and_level_values_match_the_sequences(self, dblp_db):
        """The vectorized derivation against the per-row loop over the
        sequences; `level_values` yields the same arrays and caches no
        column."""
        source = dblp_db.columnar_index
        for term in source.vocabulary[::7]:
            seqs = source.term_postings(term).seqs
            postings = ColumnarPostings(term, seqs, [0.0] * len(seqs))
            streamed = list(postings.level_values())
            assert postings._columns == {}
            assert len(streamed) == postings.max_len
            for level in range(1, postings.max_len + 1):
                rows = [i for i, seq in enumerate(postings.seqs)
                        if len(seq) >= level]
                expected = [postings.seqs[i][level - 1] for i in rows]
                column = postings.column(level)
                assert column.values.tolist() == expected
                assert column.seq_idx.tolist() == rows
                assert streamed[level - 1].tolist() == expected

    def test_root_column_single_distinct(self, index):
        col = index.term_postings("xml").column(1)
        assert col.n_distinct == 1

    def test_runs_partition_values(self, index):
        postings = index.term_postings("xml")
        for level in range(1, postings.max_len + 1):
            col = postings.column(level)
            assert col.run_starts[0] == 0
            assert col.run_starts[-1] == len(col)
            for i, value in enumerate(col.distinct):
                a, b = int(col.run_starts[i]), int(col.run_starts[i + 1])
                assert np.all(col.values[a:b] == value)

    def test_runs_of_present_value(self, index):
        col = index.term_postings("xml").column(1)
        runs = col.runs_of(col.distinct[:1])
        assert runs.tolist() == [0]
        lo, hi = col.ordinal_spans(runs)
        assert (int(lo[0]), int(hi[0])) == (0, len(col))

    def test_ordinal_spans_are_the_runs_sequences(self, index):
        """The erasure-range property: a run's sequence ordinals are
        consecutive integers (section III-E geometry) -- the span of
        each run holds exactly the sequences carrying its number at
        that level, read off the sequences themselves."""
        for term in index.vocabulary:
            postings = index.term_postings(term)
            seqs = postings.seqs
            for level in range(1, postings.max_len + 1):
                col = postings.column(level)
                lo, hi = col.ordinal_spans(np.arange(col.n_distinct))
                for value, a, b in zip(col.distinct.tolist(), lo.tolist(),
                                       hi.tolist()):
                    assert [i for i, seq in enumerate(seqs)
                            if len(seq) >= level
                            and seq[level - 1] == value] \
                        == list(range(a, b))

    def test_has_exact_length(self, index):
        postings = index.term_postings("xml")
        # `lengths` answers it (the `has_exact_length` helper left with
        # the length-grouped score lists that asked).
        assert set(postings.lengths.tolist()) == {
            3,   # the title occurrence
            4,   # section occurrences
        }

    def test_max_score(self, index):
        postings = index.term_postings("data")
        assert postings.max_score() == pytest.approx(
            float(np.max(postings.scores)))


class TestColumnarPostingsDirect:
    def test_sorts_inputs(self):
        postings = ColumnarPostings("t", [(1, 3), (1, 2)], [0.1, 0.9])
        assert postings.seqs == [(1, 2), (1, 3)]
        assert postings.scores[0] == pytest.approx(0.9)

    def test_empty(self):
        postings = ColumnarPostings("t", [], [])
        assert postings.max_len == 0
        assert len(postings.column(1)) == 0
