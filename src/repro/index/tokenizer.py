"""Tokenization of element text into keyword occurrences.

A node "directly contains" keyword ``w`` when ``w`` appears among the
tokens of the node's own text (descendants' text belongs to the
descendants).  The tokenizer is deliberately simple -- lowercase word
characters, optional stopword removal -- mirroring the Lucene analyzer
role in the paper's setup.

Text is tokenized in bulk: the texts of a chunk are joined with a
separator the token pattern cannot match, one ``findall`` reads the
chunk, every token becomes an integer id by one dict lookup, and the
stopword and length filters run once per distinct word.  A single text
is the one-text case of the same path.
"""

from __future__ import annotations

import re
from itertools import islice
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Sequence

import numpy as np

_TOKEN_RE = re.compile(r"[a-z0-9]+(?:[-'][a-z0-9]+)*")
#: Joins the texts of a chunk.  `_TOKEN_RE` cannot match it, so no token
#: spans two texts, and `_CHUNK_RE` reports each one as a boundary.
_SEP = "\x00"
_CHUNK_RE = re.compile(re.escape(_SEP) + "|" + _TOKEN_RE.pattern)
#: Texts joined into one ``findall``.
CHUNK_TEXTS = 1024

DEFAULT_STOPWORDS: FrozenSet[str] = frozenset({
    "a", "an", "and", "are", "as", "at", "be", "by", "for", "from", "in",
    "is", "it", "of", "on", "or", "the", "to", "with",
})


class Occurrences(NamedTuple):
    """What `Tokenizer.occurrences` finds in a sequence of texts.

    ``(text[i], term[i], tf[i])`` says text ``text[i]`` (its position in
    the input) holds word ``words[term[i]]`` ``tf[i]`` times; entries run
    by text, then by term id.  ``tokens[j]`` is the number of tokens
    text ``j`` keeps.  Term ids count words in order of first
    appearance; a dropped word has an id but no entry.
    """

    text: np.ndarray     # int32
    term: np.ndarray     # int32
    tf: np.ndarray       # int32
    tokens: np.ndarray   # int32, one per input text
    words: List[str]


class _Vocabulary(dict):
    """Word -> id for one tokenizing pass: a new word takes the next id
    and is checked against the filters once.  ``words`` lists the words
    by id and ``kept`` says whether each passes; the separator is id 0
    and is never kept."""

    def __init__(self, stopwords: FrozenSet[str], min_length: int):
        super().__init__()
        self.stopwords = stopwords
        self.min_length = min_length
        self.words: List[str] = []
        self.kept = bytearray()
        self[_SEP]
        self.kept[0] = False

    def __missing__(self, word: str) -> int:
        self[word] = ident = len(self.words)
        self.words.append(word)
        self.kept.append(len(word) >= self.min_length
                         and word not in self.stopwords)
        return ident

    def scan(self, texts: Sequence[str]) -> np.ndarray:
        """The id of every token of `texts` in reading order, with the
        separator's id 0 between one text's tokens and the next's."""
        joined = _SEP.join(texts)
        if joined.count(_SEP) != len(texts) - 1:
            # A text holds the separator.  Any character the token
            # pattern cannot match splits tokens alike, so a space
            # stands in for it.
            joined = _SEP.join(text.replace(_SEP, " ") for text in texts)
        found = _CHUNK_RE.findall(joined.lower())
        del joined
        return np.fromiter(map(self.__getitem__, found), np.int32,
                           len(found))


class Tokenizer:
    """Configurable text tokenizer.

    Parameters
    ----------
    stopwords:
        Tokens to drop; pass an empty set to keep everything.
    min_length:
        Tokens shorter than this are dropped.
    """

    def __init__(self, stopwords: Iterable[str] = DEFAULT_STOPWORDS,
                 min_length: int = 1):
        self.stopwords = frozenset(stopwords)
        self.min_length = min_length

    def occurrences(self, texts: Iterable[str]) -> Occurrences:
        """Every (text, term, tf) of `texts` and each text's token
        count, read `CHUNK_TEXTS` texts at a time; only one chunk's
        tokens are held at once."""
        vocabulary = _Vocabulary(self.stopwords, self.min_length)
        texts = iter(texts)
        parts: List[List[np.ndarray]] = [[], [], []]    # text, term, tf
        tokens: List[np.ndarray] = []
        base = 0
        while True:
            chunk = list(islice(texts, CHUNK_TEXTS))
            if not chunk:
                break
            ids = vocabulary.scan(chunk)
            keep = np.frombuffer(vocabulary.kept, dtype=bool)[ids]
            ordinal = np.cumsum(ids == 0, dtype=np.int32)[keep]
            term = ids[keep]
            del ids, keep
            width = len(vocabulary.words)
            keys, tf = np.unique(ordinal.astype(np.int64) * width + term,
                                 return_counts=True)
            tokens.append(np.bincount(ordinal, minlength=len(chunk))
                          .astype(np.int32))
            for column, values in zip(parts, (keys // width + base,
                                              keys % width, tf)):
                column.append(values.astype(np.int32))
            base += len(chunk)
        if not tokens:
            empty = np.empty(0, dtype=np.int32)
            return Occurrences(empty, empty, empty, empty, vocabulary.words)
        # One column at a time, its chunks let go as it is joined.
        text, term, tf = (np.concatenate(parts.pop(0)) for _ in range(3))
        return Occurrences(text, term, tf, np.concatenate(tokens),
                           vocabulary.words)

    def tokens(self, text: str) -> List[str]:
        """Tokens of `text` in order, stopwords and short tokens removed."""
        return self._words(text, self.stopwords)

    def term_frequencies(self, text: str) -> Dict[str, int]:
        """Token -> occurrence count within `text` (first appearance
        first): the one-text case of `occurrences`."""
        found = self.occurrences([text])
        words = found.words
        return {words[term]: tf for term, tf
                in zip(found.term.tolist(), found.tf.tolist())}

    def query_terms(self, query: str) -> List[str]:
        """Distinct query keywords in first-appearance order.

        Stopwords are *kept* for queries -- a user searching a stopword
        should still match -- but duplicates are collapsed because the
        LCA semantics is set-based.
        """
        return list(dict.fromkeys(self._words(query, frozenset())))

    def _words(self, text: str, stopwords: FrozenSet[str]) -> List[str]:
        vocabulary = _Vocabulary(stopwords, self.min_length)
        ids = vocabulary.scan([text]).tolist()
        words, kept = vocabulary.words, vocabulary.kept
        return [words[term] for term in ids if kept[term]]
