"""Further property-based tests: prefix consistency, serialization over
random trees, parser fuzz, result fragments."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import XMLDatabase, parse_xml
from repro.index import storage
from repro.index.lazydisk import LazyColumnarIndex
from repro.xmltree.parser import XMLParseError
from tests.test_properties import labelled_tree, query_terms


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(labelled_tree(), query_terms, st.integers(1, 4))
def test_topk_prefix_consistency(tree, terms, k):
    """search_topk(k) must be a prefix of search_topk(k+3) by score."""
    db = XMLDatabase.from_tree(tree)
    small = db.search_topk(terms, k)
    large = db.search_topk(terms, k + 3)
    assert [round(r.score, 9) for r in small] == \
        [round(r.score, 9) for r in large][: len(small)]


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(labelled_tree())
def test_columnar_serialization_roundtrip_random_trees(tree):
    """Every term of a random tree's index round-trips exactly."""
    db = XMLDatabase.from_tree(tree)
    index = db.columnar_index
    blob = storage.serialize_columnar_index(index,
                                            score_mode=storage.SCORES_EXACT)
    loaded = LazyColumnarIndex(blob, index.nodes)
    assert loaded.vocabulary == index.vocabulary
    for term in loaded.vocabulary:
        postings = loaded.term_postings(term)
        original = index.term_postings(term)
        assert postings.seqs == original.seqs
        assert list(postings.scores) == pytest.approx(
            list(original.scores))


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(labelled_tree(), query_terms)
def test_lazy_index_equals_eager_on_random_trees(tree, terms):
    from repro.algorithms.join_based import JoinBasedSearch

    db = XMLDatabase.from_tree(tree)
    blob = storage.serialize_columnar_index(
        db.columnar_index, score_mode=storage.SCORES_EXACT)
    lazy = LazyColumnarIndex(blob, db.tree, db.tokenizer, db.ranking)
    expected, _ = JoinBasedSearch(db.columnar_index).evaluate(terms, "elca")
    got, _ = JoinBasedSearch(lazy).evaluate(terms, "elca")
    assert [(r.node.dewey, round(r.score, 9)) for r in got] == \
        [(r.node.dewey, round(r.score, 9)) for r in expected]


@settings(max_examples=80, deadline=None)
@given(st.text(max_size=120))
def test_parser_totality(text):
    """The parser either succeeds or raises XMLParseError -- nothing
    else escapes, whatever the input."""
    try:
        tree = parse_xml(text)
    except XMLParseError:
        return
    assert tree.frozen


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(labelled_tree())
def test_document_roundtrip_through_serialization(tree):
    """to_xml -> parse_xml preserves structure and (normalized) text."""
    reparsed = parse_xml(tree.to_xml())
    assert [n.tag for n in reparsed.nodes] == [n.tag for n in tree.nodes]
    assert [" ".join(n.text.split()) for n in reparsed.nodes] == \
        [" ".join(n.text.split()) for n in tree.nodes]


class TestFragments:
    def test_fragment_contains_keywords(self, small_db):
        for r in small_db.search("xml data"):
            fragment = r.fragment()
            assert "<" + r.node.tag in fragment
            text = fragment.lower()
            assert "xml" in text and "data" in text

    def test_fragment_is_parseable(self, small_db):
        for r in small_db.search("xml data"):
            sub = parse_xml(r.fragment())
            assert sub.root.tag == r.node.tag

    def test_indented_fragment(self, small_db):
        r = small_db.search("xml data")[0]
        assert "\n" in r.fragment(indent=True)
