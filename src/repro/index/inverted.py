"""Document-ordered Dewey posting lists, as a view of the columnar index.

This is the substrate of the three baselines: the stack-based algorithm
scans these lists in document order, the index-based algorithm binary-
searches them, and RDIL pairs them with a score-ordered view.  Nothing
is stored for them: an occurrence's *(level, JDewey number)* identifies
its node (section III-A), so a term's list is derived from that term's
columnar postings and the node table the first time a baseline asks --
the same code for an index built in memory and one opened from disk.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..scoring.ranking import RankingModel
from ..xmltree.dewey import Dewey, subtree_upper_bound
from ..xmltree.jdewey import encode_tree
from ..xmltree.tree import XMLTree
from .columnar import ColumnarIndex
from .tokenizer import Tokenizer


@dataclass
class Posting:
    """One keyword occurrence: the Dewey id of a node that directly
    contains the term, and its local score ``g(v, w)``."""

    __slots__ = ("dewey", "score")

    dewey: Dewey
    score: float

    @property
    def level(self) -> int:
        return len(self.dewey)


@dataclass
class PostingList:
    """All occurrences of one term, sorted in document order.

    The list is immutable once built; `deweys` is cached because the
    index-based and RDIL baselines binary-search it constantly.
    """

    term: str
    postings: List[Posting] = field(default_factory=list)
    _deweys: Optional[List[Dewey]] = field(default=None, repr=False,
                                           compare=False)

    def __len__(self) -> int:
        return len(self.postings)

    @property
    def deweys(self) -> List[Dewey]:
        if self._deweys is None or len(self._deweys) != len(self.postings):
            self._deweys = [p.dewey for p in self.postings]
        return self._deweys

    def max_score(self) -> float:
        return max((p.score for p in self.postings), default=0.0)

    def descendants_range(self, dewey: Sequence[int]) -> Tuple[int, int]:
        """Index range [lo, hi) of postings inside `dewey`'s subtree."""
        low = tuple(dewey)
        high = subtree_upper_bound(dewey)
        keys = self.deweys
        return (bisect.bisect_left(keys, low), bisect.bisect_left(keys, high))

    def has_descendant(self, dewey: Sequence[int]) -> bool:
        lo, hi = self.descendants_range(dewey)
        return hi > lo

    def neighbours(self, dewey: Sequence[int]
                   ) -> Tuple[Optional[Posting], Optional[Posting]]:
        """Closest postings left/right of `dewey` in document order."""
        keys = self.deweys
        target = tuple(dewey)
        pos = bisect.bisect_left(keys, target)
        if pos < len(keys) and keys[pos] == target:
            posting = self.postings[pos]
            return posting, posting
        left = self.postings[pos - 1] if pos > 0 else None
        right = self.postings[pos] if pos < len(keys) else None
        return left, right

    def by_score_desc(self) -> List[Posting]:
        """Postings sorted by local score, best first (RDIL's view)."""
        return sorted(self.postings, key=lambda p: (-p.score, p.dewey))


class InvertedIndex:
    """Dewey posting lists over one document, materialized per term.

    Wraps a columnar index (`over`) or, given a tree, the columnar
    index built from it.  `term_list` derives and keeps a term's list
    on first use (an empty list for unknown terms, so k-keyword queries
    degrade gracefully to empty results); vocabulary and document
    frequencies are the columnar index's and derive nothing.
    """

    def __init__(self, tree: XMLTree, tokenizer: Optional[Tokenizer] = None,
                 ranking: Optional[RankingModel] = None):
        if not tree.root.jdewey:
            encode_tree(tree)
        self.columnar = ColumnarIndex(tree, tokenizer, ranking)
        self._lists: Dict[str, PostingList] = {}

    @classmethod
    def over(cls, columnar) -> "InvertedIndex":
        """The Dewey view of an existing columnar index (in memory or
        disk-backed)."""
        index = cls.__new__(cls)
        index.columnar = columnar
        index._lists = {}
        return index

    @property
    def tree(self) -> XMLTree:
        return self.columnar.tree

    @property
    def tokenizer(self) -> Tokenizer:
        return self.columnar.tokenizer

    @property
    def ranking(self) -> RankingModel:
        return self.columnar.ranking

    @property
    def n_docs(self) -> int:
        return self.columnar.n_docs

    def node_by_dewey(self, dewey: Sequence[int]):
        """The node a baseline's result Dewey id names."""
        return self.columnar.nodes.node_by_dewey(dewey)

    def _derive(self, term: str) -> PostingList:
        """One term's columnar postings as a document-ordered Dewey list.

        Per level, the occurrences exactly that deep are the column
        entries whose sequence ends there; their numbers resolve to
        node-table rows in bulk, and row order is document order.
        """
        postings = self.columnar.term_postings(term)
        nodes = self.columnar.nodes
        lengths = np.asarray(postings.lengths)
        rows = np.empty(len(lengths), dtype=np.int64)
        for level in np.unique(lengths).tolist():
            column = postings.column(level)
            ends_here = lengths[column.seq_idx] == level
            rows[column.seq_idx[ends_here]] = nodes.rows_at(
                level, column.values[ends_here])
        order = np.argsort(rows, kind="stable")
        scores = np.asarray(postings.scores)[order].tolist()
        return PostingList(term, [
            Posting(dewey, score)
            for dewey, score in zip(nodes.deweys(rows[order]), scores)])

    def __contains__(self, term: str) -> bool:
        return term in self.columnar

    @property
    def vocabulary(self) -> List[str]:
        return self.columnar.vocabulary

    def term_list(self, term: str) -> PostingList:
        existing = self._lists.get(term)
        if existing is None:
            if term not in self.columnar:
                return PostingList(term, [])
            existing = self._lists[term] = self._derive(term)
        return existing

    def document_frequency(self, term: str) -> int:
        return self.columnar.document_frequency(term)

    def query_lists(self, terms: Iterable[str]) -> List[PostingList]:
        """Posting lists for a query, ordered shortest first.

        The shortest-first order is the paper's left-deep join ordering
        (section III-C) and the driver choice of the index-based
        baseline.
        """
        lists = [self.term_list(t) for t in terms]
        lists.sort(key=len)
        return lists
