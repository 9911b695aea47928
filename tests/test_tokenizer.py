"""Tests for text tokenization (`repro.index.tokenizer`)."""

from unittest import mock

import pytest

from repro.index import tokenizer as tokenizer_module
from repro.index.tokenizer import DEFAULT_STOPWORDS, Tokenizer


class TestTokens:
    def test_lowercases(self):
        assert Tokenizer(stopwords=()).tokens("XML Data") == ["xml", "data"]

    def test_splits_on_punctuation(self):
        toks = Tokenizer(stopwords=()).tokens("top-k, join; (XML)!")
        assert toks == ["top-k", "join", "xml"]

    def test_keeps_internal_hyphen_and_apostrophe(self):
        toks = Tokenizer(stopwords=()).tokens("fagin's top-k")
        assert toks == ["fagin's", "top-k"]

    def test_numbers_kept(self):
        assert Tokenizer(stopwords=()).tokens("ICDE 2010") == ["icde", "2010"]

    def test_stopwords_removed(self):
        toks = Tokenizer().tokens("the quick search of the data")
        assert "the" not in toks and "of" not in toks
        assert toks == ["quick", "search", "data"]

    def test_custom_stopwords(self):
        toks = Tokenizer(stopwords={"data"}).tokens("the data model")
        assert toks == ["the", "model"]

    def test_min_length_filter(self):
        toks = Tokenizer(stopwords=(), min_length=3).tokens("an xml db x")
        assert toks == ["xml"]

    def test_empty_text(self):
        assert Tokenizer().tokens("") == []

    def test_default_stopwords_frozen(self):
        assert "the" in DEFAULT_STOPWORDS
        assert isinstance(DEFAULT_STOPWORDS, frozenset)


class TestTermFrequencies:
    def test_counts(self):
        tf = Tokenizer(stopwords=()).term_frequencies("xml data xml")
        assert tf == {"xml": 2, "data": 1}

    def test_empty(self):
        assert Tokenizer().term_frequencies("") == {}

    def test_stopwords_not_counted(self):
        tf = Tokenizer().term_frequencies("the the the data")
        assert tf == {"data": 1}


class TestOccurrences:
    TEXTS = ["XML data xml", "", "the of", "top-k x\x00y", "data", "xml-",
             "-data"]

    def test_many_texts_in_one_call(self):
        found = Tokenizer().occurrences(self.TEXTS)
        words = found.words
        assert [(text, words[term], tf) for text, term, tf in zip(
            found.text.tolist(), found.term.tolist(), found.tf.tolist())] \
            == [(0, "xml", 2), (0, "data", 1), (3, "top-k", 1), (3, "x", 1),
                (3, "y", 1), (4, "data", 1), (5, "xml", 1), (6, "data", 1)]
        assert found.tokens.tolist() == [3, 0, 0, 3, 1, 1, 1]
        assert {a.dtype.name for a in found[:4]} == {"int32"}

    @pytest.mark.parametrize("chunk", [1, 2, 3, 4096])
    def test_chunks_do_not_change_what_is_found(self, chunk):
        tokenizer = Tokenizer(stopwords=(), min_length=2)
        with mock.patch.object(tokenizer_module, "CHUNK_TEXTS", chunk):
            found = tokenizer.occurrences(iter(self.TEXTS))
        per_text = [tokenizer.term_frequencies(t) for t in self.TEXTS]
        words = found.words
        got = [{} for _ in self.TEXTS]
        for text, term, tf in zip(found.text.tolist(), found.term.tolist(),
                                  found.tf.tolist()):
            got[text][words[term]] = tf
        assert got == per_text
        assert found.tokens.tolist() == [sum(c.values()) for c in per_text]

    def test_a_text_holding_the_separator_tokenizes_as_with_a_space(self):
        tokenizer = Tokenizer(stopwords=())
        for text in ("a\x00b", "\x00", "x\x00\x00y-z", "top-\x00k"):
            assert tokenizer.tokens(text) == \
                tokenizer.tokens(text.replace("\x00", " "))
            found = tokenizer.occurrences([text, "tail"])
            assert found.tokens.tolist()[-1] == 1

    def test_nothing_to_tokenize(self):
        for texts in ([], [""], ["the", "  "]):
            found = Tokenizer().occurrences(texts)
            assert len(found.text) == len(found.term) == len(found.tf) == 0
            assert found.tokens.tolist() == [0] * len(texts)


class TestQueryTerms:
    def test_distinct_in_order(self):
        terms = Tokenizer().query_terms("XML data xml search")
        assert terms == ["xml", "data", "search"]

    def test_stopwords_kept_in_queries(self):
        assert Tokenizer().query_terms("the") == ["the"]

    def test_empty_query(self):
        assert Tokenizer().query_terms("   ") == []
