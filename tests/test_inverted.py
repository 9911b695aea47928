"""Tests for the Dewey inverted index (`repro.index.inverted`)."""

import pytest

from repro.index.inverted import InvertedIndex
from repro.index.tokenizer import Tokenizer
from repro.xmltree.tree import build_tree


@pytest.fixture
def tree():
    return build_tree(
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


@pytest.fixture
def index(tree):
    return InvertedIndex(tree, tokenizer=Tokenizer(stopwords=()))


class TestBuild:
    def test_document_frequency(self, index):
        assert index.document_frequency("xml") == 3
        assert index.document_frequency("data") == 2
        assert index.document_frequency("absent") == 0

    def test_postings_in_document_order(self, index):
        deweys = index.term_list("xml").deweys
        assert deweys == sorted(deweys)

    def test_scores_positive(self, index):
        assert all(p.score > 0 for p in index.term_list("xml").postings)

    def test_rare_term_outscores_common_at_same_tf(self, index):
        # "keyword" (df=1) and "data" (df=2) co-occur in the article node
        # with tf 1 each; idf makes the rarer one score higher.
        article = (1, 2)
        kw = next(p for p in index.term_list("keyword").postings
                  if p.dewey == article)
        da = next(p for p in index.term_list("data").postings
                  if p.dewey == article)
        assert kw.score > da.score

    def test_n_docs_counts_text_nodes(self, index):
        assert index.n_docs == 4

    def test_vocabulary_sorted(self, index):
        vocab = index.vocabulary
        assert vocab == sorted(vocab)
        assert "xml" in vocab

    def test_contains(self, index):
        assert "xml" in index
        assert "absent" not in index

    def test_unknown_term_empty_list(self, index):
        plist = index.term_list("absent")
        assert len(plist) == 0
        assert plist.term == "absent"

    def test_stopwords_excluded_with_default_tokenizer(self, tree):
        idx = InvertedIndex(tree)  # default tokenizer drops "and"
        assert idx.document_frequency("and") == 0

    def test_posting_level(self, index):
        posting = index.term_list("keyword").postings[0]
        assert posting.level == len(posting.dewey) == 2


class TestPostingListOps:
    def test_descendants_range(self, index):
        plist = index.term_list("xml")
        lo, hi = plist.descendants_range((1, 1, 2))
        assert [p.dewey for p in plist.postings[lo:hi]] == \
            [(1, 1, 2, 1), (1, 1, 2, 2)]

    def test_descendants_range_empty(self, index):
        plist = index.term_list("xml")
        lo, hi = plist.descendants_range((1, 2))
        assert lo == hi

    def test_has_descendant(self, index):
        plist = index.term_list("data")
        assert plist.has_descendant((1, 2))
        assert not plist.has_descendant((1, 1, 2, 1))

    def test_neighbours_exact(self, index):
        plist = index.term_list("xml")
        left, right = plist.neighbours((1, 1, 2, 1))
        assert left.dewey == right.dewey == (1, 1, 2, 1)

    def test_neighbours_between(self, index):
        plist = index.term_list("xml")
        left, right = plist.neighbours((1, 1, 2))
        assert left.dewey == (1, 1, 1)
        assert right.dewey == (1, 1, 2, 1)

    def test_neighbours_boundaries(self, index):
        plist = index.term_list("xml")
        left, _ = plist.neighbours((0,))
        _, right = plist.neighbours((9,))
        assert left is None and right is None

    def test_by_score_desc_sorted(self, index):
        scores = [p.score for p in index.term_list("xml").by_score_desc()]
        assert scores == sorted(scores, reverse=True)

    def test_max_score(self, index):
        plist = index.term_list("xml")
        assert plist.max_score() == max(p.score for p in plist.postings)

    def test_max_score_empty_list(self, index):
        assert index.term_list("absent").max_score() == 0.0


class TestQueryLists:
    def test_shortest_first(self, index):
        lists = index.query_lists(["xml", "keyword", "data"])
        sizes = [len(lst) for lst in lists]
        assert sizes == sorted(sizes)

    def test_includes_empty_for_unknown(self, index):
        lists = index.query_lists(["absent", "xml"])
        assert len(lists[0]) == 0
