"""The per-node index build `ColumnarIndex` used to run, kept as the
reference the bulk build is held bit-identical to
(`tests/test_build_equivalence.py`), and the Dewey lists the derived
views must equal (`tests/test_dewey_view.py`).  `local_scores` is the
bulk build's scoring before it looked scores up a chunk at a time.

One text node at a time: a term -> tf dict per node, a ``(node, tf,
tokens)`` tuple per occurrence, one ``scorer.score`` call per
occurrence, and the sequences sorted by tuple order.
"""

from typing import Dict, List, Tuple

import numpy as np

from repro.index.columnar import ColumnarPostings
from repro.index.tokenizer import _TOKEN_RE, Tokenizer
from repro.scoring.ranking import RankingModel
from repro.xmltree.tree import XMLTree


def term_frequencies(tokenizer: Tokenizer, text: str) -> Dict[str, int]:
    """Token -> count within `text`: one ``findall`` of the token
    pattern over the lowercased text, then the tokenizer's filters."""
    counts: Dict[str, int] = {}
    for token in _TOKEN_RE.findall(text.lower()):
        if len(token) >= tokenizer.min_length \
                and token not in tokenizer.stopwords:
            counts[token] = counts.get(token, 0) + 1
    return counts


def occurrences(tree: XMLTree, tokenizer: Tokenizer, ranking: RankingModel
                ) -> Tuple[Dict[str, List[Tuple[object, float]]], int]:
    """``(term -> [(node, local score), ...] in document order, n_docs)``."""
    raw: Dict[str, List[Tuple[object, int, int]]] = {}
    n_docs = 0
    for node in tree.nodes:
        if not node.text:
            continue
        counts = term_frequencies(tokenizer, node.text)
        if not counts:
            continue
        n_docs += 1
        node_tokens = sum(counts.values())
        for term, tf in counts.items():
            raw.setdefault(term, []).append((node, tf, node_tokens))
    return {term: [(node, ranking.scorer.score(tf, len(entries), n_docs,
                                               ntok))
                   for node, tf, ntok in entries]
            for term, entries in raw.items()}, n_docs


def reference_postings(tree: XMLTree, tokenizer: Tokenizer = None,
                       ranking: RankingModel = None
                       ) -> Tuple[Dict[str, ColumnarPostings], int]:
    """``(term -> ColumnarPostings over the nodes' JDewey sequences,
    n_docs)``: the per-node build."""
    tokenizer = tokenizer if tokenizer is not None else Tokenizer()
    ranking = ranking if ranking is not None else RankingModel()
    found, n_docs = occurrences(tree, tokenizer, ranking)
    return {term: ColumnarPostings(term, [node.jdewey for node, _ in hits],
                                   [score for _, score in hits])
            for term, hits in found.items()}, n_docs


def reference_dewey_lists(tree: XMLTree, tokenizer: Tokenizer = None,
                          ranking: RankingModel = None
                          ) -> Dict[str, List[Tuple[Tuple[int, ...], float]]]:
    """``term -> [(dewey, local score), ...]`` in document order."""
    tokenizer = tokenizer if tokenizer is not None else Tokenizer()
    ranking = ranking if ranking is not None else RankingModel()
    found, _ = occurrences(tree, tokenizer, ranking)
    return {term: [(node.dewey, score) for node, score in hits]
            for term, hits in found.items()}


def local_scores(scorer, term: np.ndarray, tf: np.ndarray,
                 tokens: np.ndarray, n_docs: int) -> np.ndarray:
    """Each occurrence's local score ``g`` as the build used to score
    them, occurrences in text order: one ``lexsort`` of every (df, tf,
    tokens) triple, ``scorer.score`` once per distinct triple, on Python
    ints."""
    df = np.bincount(term).astype(np.int32)[term]
    order = np.lexsort((tokens, tf, df))
    df, tf, tokens = df[order], tf[order], tokens[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = ((df[1:] != df[:-1]) | (tf[1:] != tf[:-1])
               | (tokens[1:] != tokens[:-1]))
    first = np.flatnonzero(new)
    score = scorer.score
    distinct = np.asarray(
        [score(f, d, n_docs, k) for f, d, k in zip(
            tf[first].tolist(), df[first].tolist(),
            tokens[first].tolist())], dtype=np.float64)
    scores = np.empty(len(order), dtype=np.float64)
    scores[order] = distinct[np.cumsum(new, dtype=np.int32) - 1]
    return scores
