"""Stack-based baseline (XRank's DIL family, [5], [6], [10]).

The classic document-order approach: merge all k Dewey posting lists
into one sorted stream and sweep it with a stack that mirrors the
current root-to-node path.  Each stack frame accumulates, for the node
it represents,

* ``contains`` -- the keywords present anywhere in the subtree seen so
  far, and
* ``free``     -- the keywords with a witness occurrence not blocked by
  a C-descendant (the ELCA exclusion rule),

plus the best damped per-keyword witness scores.  When a frame pops,
its node's ELCA/SLCA status is decided and its contribution is folded
into the parent frame (contributions from C-children are blocked).

The signature behaviour the paper measures: the sweep always scans
*every* posting of *every* list, so the running time is governed by the
highest-frequency keyword regardless of the others (flat lines in
Figure 9(a)-(d)).
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Sequence, Tuple

from ..index.inverted import InvertedIndex
from ..scoring.ranking import RankingModel
from ..xmltree.dewey import Dewey
from .base import (ELCA, SLCA, ExecutionStats, SearchResult, check_semantics,
                   sort_by_document_order)


class _Frame:
    """State for one node on the current path."""

    __slots__ = ("component", "contains", "free", "scores", "has_c_child")

    def __init__(self, component: int, k: int):
        self.component = component
        self.contains = 0
        self.free = 0
        self.scores = [0.0] * k
        self.has_c_child = False


class StackBasedSearch:
    """Complete ELCA/SLCA evaluation by a document-order stack sweep."""

    def __init__(self, index: InvertedIndex):
        self.index = index
        self.ranking: RankingModel = index.ranking

    def evaluate(self, terms: Sequence[str], semantics: str = ELCA,
                 with_scores: bool = True
                 ) -> Tuple[List[SearchResult], ExecutionStats]:
        check_semantics(semantics)
        stats = ExecutionStats()
        terms = list(terms)
        if not terms:
            return [], stats
        lists = [self.index.term_list(t) for t in terms]
        if any(len(lst) == 0 for lst in lists):
            return [], stats
        k = len(terms)
        full = (1 << k) - 1
        decay = self.ranking.damping(1)

        # k-way merge of the document-ordered lists (bind i/lst eagerly:
        # a generator expression here would close over the loop vars).
        streams = [
            [(p.dewey, i, p.score) for p in lst.postings]
            for i, lst in enumerate(lists)
        ]
        stream = heapq.merge(*streams)

        stack: List[_Frame] = []
        results: List[SearchResult] = []

        def pop_frame() -> None:
            frame = stack.pop()
            node_dewey = tuple(f.component for f in stack) + (frame.component,)
            self._finish_node(frame, node_dewey, len(stack) + 1, full,
                              semantics, with_scores, results, stats)
            if stack:
                parent = stack[-1]
                parent.contains |= frame.contains
                if frame.contains == full:
                    parent.has_c_child = True
                else:
                    parent.free |= frame.free
                    if with_scores:
                        for i in range(k):
                            damped = frame.scores[i] * decay
                            if damped > parent.scores[i]:
                                parent.scores[i] = damped

        for dewey, term_idx, score in stream:
            stats.tuples_scanned += 1
            shared = 0
            limit = min(len(stack), len(dewey))
            while shared < limit and stack[shared].component == dewey[shared]:
                shared += 1
            while len(stack) > shared:
                pop_frame()
            for component in dewey[shared:]:
                stack.append(_Frame(component, k))
            top = stack[-1]
            top.contains |= 1 << term_idx
            top.free |= 1 << term_idx
            if with_scores and score > top.scores[term_idx]:
                top.scores[term_idx] = score
        while stack:
            pop_frame()
        return sort_by_document_order(results), stats

    def _finish_node(self, frame: _Frame, dewey: Dewey, level: int, full: int,
                     semantics: str, with_scores: bool,
                     results: List[SearchResult],
                     stats: ExecutionStats) -> None:
        if frame.contains != full:
            return
        stats.candidates_checked += 1
        if semantics == ELCA:
            is_result = frame.free == full
        else:
            is_result = not frame.has_c_child
        if not is_result:
            return
        node = self.index.node_by_dewey(dewey)
        score = self.ranking.score_result(frame.scores) if with_scores else 0.0
        results.append(SearchResult(node, level, score, tuple(frame.scores)))
        stats.results_emitted += 1

