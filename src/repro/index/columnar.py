"""Column-oriented JDewey inverted index (paper sections III-A/III-B).

Each term's occurrences are kept as JDewey sequences sorted in JDewey
order; column ``l`` holds the ``l``-th component of every sequence of
length >= ``l``.  Property 3.1 makes every column sorted, so runs of the
same number are contiguous -- the run view *is* the second compression
scheme of section III-D, and the join algorithms operate directly on the
distinct-value arrays.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..scoring.ranking import RankingModel
from ..xmltree.jdewey import JDeweySeq
from ..xmltree.nodetable import NodeTable
from ..xmltree.tree import XMLTree
from .tokenizer import Tokenizer


def expand_runs(lows: np.ndarray, counts: np.ndarray
                ) -> Tuple[np.ndarray, np.ndarray]:
    """``(rows, offsets)``: every row of the ranges ``[lows[j], lows[j]
    + counts[j])`` laid end to end, and where range j starts in that."""
    offsets = np.cumsum(counts) - counts
    rows = np.repeat(lows - offsets, counts) + np.arange(int(counts.sum()))
    return rows, offsets


class Column:
    """One level of one term's inverted list.

    Attributes
    ----------
    values:
        Sorted JDewey numbers, one entry per sequence of length >= level.
    seq_idx:
        For each entry, the ordinal of its sequence in the owning
        `ColumnarPostings.seqs` (used for erasure bookkeeping).
    distinct / run_starts:
        Run-length view: ``values[run_starts[i]:run_starts[i+1]]`` all
        equal ``distinct[i]``.  This mirrors the (v, r, c) triples of
        section III-D.
    """

    __slots__ = ("level", "values", "seq_idx", "distinct", "run_starts")

    def __init__(self, level: int, values: np.ndarray, seq_idx: np.ndarray):
        self.level = level
        self.values = values
        self.seq_idx = seq_idx
        if len(values):
            distinct, starts = np.unique(values, return_index=True)
        else:
            distinct = np.empty(0, dtype=np.int64)
            starts = np.empty(0, dtype=np.int64)
        self.distinct = distinct
        self.run_starts = np.append(starts, len(values)).astype(np.int64)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def n_distinct(self) -> int:
        return len(self.distinct)

    def run_of(self, value: int) -> Tuple[int, int]:
        """Position range [a, b) of `value` inside `values` (empty if absent)."""
        i = int(np.searchsorted(self.distinct, value))
        if i >= len(self.distinct) or self.distinct[i] != value:
            return 0, 0
        return int(self.run_starts[i]), int(self.run_starts[i + 1])

    def runs_of(self, values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Bulk `run_of`: (lows, highs) position ranges for `values`.

        Every value must be present in `distinct` (join outputs always
        are -- they come from intersecting distinct arrays); absent
        values would silently alias a neighbouring run.
        """
        idx = np.searchsorted(self.distinct, values)
        return self.run_starts[idx], self.run_starts[idx + 1]

    def ordinal_spans(self, lows: np.ndarray, highs: np.ndarray
                      ) -> Tuple[np.ndarray, np.ndarray]:
        """Sequence-ordinal spans [lo, hi) covering each run [a, b).

        The span is the erasure currency of section III-E: it includes
        ordinals of shorter sequences interleaved within the run, which
        is exactly the range rule ("all the sequences within A_k").
        Runs must be non-empty.
        """
        return self.seq_idx[lows], self.seq_idx[highs - 1] + 1

    def run_seq_indices(self, value: int) -> np.ndarray:
        """Sequence ordinals of the run for `value`."""
        a, b = self.run_of(value)
        return self.seq_idx[a:b]

    def contains(self, value: int) -> bool:
        a, b = self.run_of(value)
        return b > a


class ColumnarPostings:
    """All occurrences of one term in the columnar encoding.

    ``seqs`` is sorted in JDewey order; ``scores[i]`` is the local score
    ``g`` of occurrence ``seqs[i]``; ``lengths[i] == len(seqs[i])`` is the
    occurrence's level.  Columns are materialized lazily and cached.
    """

    #: ``(damping base, order, ...)`` left here by the first
    #: `repro.index.scored.ScoredPostings` built over this object, so the
    #: term's score order is sorted once, not once per query.
    _score_order = None

    def __init__(self, term: str, seqs: List[JDeweySeq],
                 scores: Sequence[float]):
        order = sorted(range(len(seqs)), key=lambda i: seqs[i])
        self.term = term
        self.seqs: List[JDeweySeq] = [seqs[i] for i in order]
        self.scores = np.asarray([scores[i] for i in order], dtype=np.float64)
        self.lengths = np.asarray([len(s) for s in self.seqs], dtype=np.int64)
        self.max_len = int(self.lengths.max()) if len(self.seqs) else 0
        self._columns: Dict[int, Column] = {}

    def __len__(self) -> int:
        return len(self.lengths)

    def column(self, level: int) -> Column:
        """The column for `level` (1-based); empty beyond `max_len`."""
        if level < 1:
            raise ValueError("levels are 1-based")
        cached = self._columns.get(level)
        if cached is not None:
            return cached
        mask = self.lengths >= level
        seq_idx = np.nonzero(mask)[0].astype(np.int64)
        values = np.asarray([self.seqs[i][level - 1] for i in seq_idx],
                            dtype=np.int64)
        column = Column(level, values, seq_idx)
        self._columns[level] = column
        return column

    def max_score(self) -> float:
        return float(self.scores.max()) if len(self.scores) else 0.0


class ColumnarIndex:
    """JDewey columnar inverted index over one document.

    Results are materialized through ``nodes``, the document's
    `NodeTable`: a JDewey number plus its level uniquely identifies a
    node (the representational advantage section III-A highlights).

    Everything a reader asks goes through `term_postings`, `vocabulary`
    and ``in``; the disk-backed `repro.index.lazydisk.LazyColumnarIndex`
    overrides exactly those three.
    """

    def __init__(self, tree: XMLTree, tokenizer: Optional[Tokenizer] = None,
                 ranking: Optional[RankingModel] = None):
        self.nodes = NodeTable.from_tree(tree)
        self.tokenizer = tokenizer if tokenizer is not None else Tokenizer()
        self.ranking = ranking if ranking is not None else RankingModel()
        self._postings: Dict[str, ColumnarPostings] = {}
        self.n_docs = 0
        self._build()

    @classmethod
    def from_postings(cls, nodes,
                      postings: Dict[str, ColumnarPostings],
                      tokenizer: Optional[Tokenizer] = None,
                      ranking: Optional[RankingModel] = None,
                      n_docs: int = 0) -> "ColumnarIndex":
        """Wrap pre-built per-term postings (the persistence load path).

        `nodes` is the `NodeTable` the postings' JDewey numbers refer
        to (or a tree carrying that numbering, whose table is built).
        """
        index = cls.__new__(cls)
        index.nodes = NodeTable.of(nodes)
        index.tokenizer = tokenizer if tokenizer is not None else Tokenizer()
        index.ranking = ranking if ranking is not None else RankingModel()
        index._postings = dict(postings)
        index.n_docs = n_docs
        return index

    @property
    def tree(self) -> XMLTree:
        return self.nodes.tree

    def _build(self) -> None:
        raw: Dict[str, List[Tuple[JDeweySeq, int, int]]] = {}
        for node in self.tree.iter_document_order():
            if not node.text:
                continue
            counts = self.tokenizer.term_frequencies(node.text)
            if not counts:
                continue
            self.n_docs += 1
            node_tokens = sum(counts.values())
            for term, tf in counts.items():
                raw.setdefault(term, []).append((node.jdewey, tf, node_tokens))
        for term, entries in raw.items():
            df = len(entries)
            seqs = [seq for seq, _, _ in entries]
            scores = [
                self.ranking.scorer.score(tf, df, self.n_docs, ntok)
                for _, tf, ntok in entries
            ]
            self._postings[term] = ColumnarPostings(term, seqs, scores)

    def __contains__(self, term: str) -> bool:
        return term in self._postings

    @property
    def vocabulary(self) -> List[str]:
        return sorted(self._postings)

    def term_postings(self, term: str) -> ColumnarPostings:
        existing = self._postings.get(term)
        if existing is not None:
            return existing
        return ColumnarPostings(term, [], [])

    def document_frequency(self, term: str) -> int:
        return len(self.term_postings(term))

    def query_postings(self, terms: Sequence[str]) -> List[ColumnarPostings]:
        """Per-term postings ordered shortest first (left-deep join order)."""
        postings = [self.term_postings(t) for t in terms]
        postings.sort(key=len)
        return postings

    def node_at(self, level: int, number: int):
        """Materialize the node identified by (level, JDewey number)."""
        return self.nodes.node_at(level, number)
