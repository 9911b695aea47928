"""RDIL baseline: Ranked Dewey Inverted Lists (XRank [5], section II-C).

The straightforward TA-style application the paper argues against: each
keyword's posting list is additionally sorted by the *local* score, and
the algorithm repeatedly

1. pops the globally best unseen occurrence ``v`` (round-robin over the
   score-sorted lists),
2. probes the document-ordered lists of the other keywords (the role of
   the B-trees RDIL builds) for the closest occurrences, yielding the
   deepest node containing ``v`` and all keywords,
3. verifies the candidate's ELCA/SLCA status with further lookups --
   the "checking irrelevant LCAs and their correlations" cost, since
   score order destroys the document-order pruning -- and scores it.

Results are emitted once their score reaches the unseen bound
``sum_i g_next_i``: a result is produced the first time *any* of its
free witnesses pops, so an unproduced result still has an unpopped free
witness in every list, making the bound sound (and slightly tighter
than the classic ``max_i (g_next_i + sum_{j != i} g_max_j)``).  The
bound ignores damping (d <= 1), which is exactly RDIL's weakness the
paper describes: a high local score says nothing about the damped
global score, so the bound stays loose and termination comes late.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..index.inverted import InvertedIndex, PostingList
from ..scoring.ranking import RankingModel
from ..xmltree.dewey import Dewey
from .base import (ELCA, SLCA, ExecutionStats, SearchResult, TopKResult,
                   check_semantics)
from .index_based import IndexBasedSearch


class _ScoreCursor:
    """Score-descending cursor over one posting list."""

    __slots__ = ("postings", "pos")

    def __init__(self, plist: PostingList):
        self.postings = plist.by_score_desc()
        self.pos = 0

    def peek(self) -> Optional[float]:
        if self.pos >= len(self.postings):
            return None
        return self.postings[self.pos].score

    def pop(self):
        if self.pos >= len(self.postings):
            return None
        posting = self.postings[self.pos]
        self.pos += 1
        return posting


class RDILSearch:
    """Top-K ELCA/SLCA search by ranked scan + index lookups."""

    def __init__(self, index: InvertedIndex):
        self.index = index
        self.ranking: RankingModel = index.ranking
        self._lookup = IndexBasedSearch(index)

    def search(self, terms: Sequence[str], k: int,
               semantics: str = ELCA) -> TopKResult:
        check_semantics(semantics)
        stats = ExecutionStats()
        terms = list(terms)
        if not terms or k <= 0:
            return TopKResult([], stats)
        lists = self.index.query_lists(terms)
        if any(len(lst) == 0 for lst in lists):
            return TopKResult([], stats)
        list_slot = {lst.term: i for i, lst in enumerate(lists)}
        caller_slot = [list_slot[t] for t in terms]

        cursors = [_ScoreCursor(lst) for lst in lists]
        produced: Set[Dewey] = set()
        buffer: List[Tuple[float, Dewey, SearchResult]] = []
        emitted: List[SearchResult] = []
        turn = 0

        while len(emitted) < k:
            cursor = self._next_cursor(cursors, turn)
            turn += 1
            if cursor is None:
                break  # a list ran dry: no unproduced result remains
            posting = cursor.pop()
            stats.tuples_scanned += 1
            candidate = self._lookup._elca_candidate(lists, posting.dewey,
                                                     stats)
            if candidate and candidate not in produced:
                produced.add(candidate)
                result = self._check_and_score(lists, candidate, semantics,
                                               caller_slot, stats)
                if result is not None:
                    heapq.heappush(buffer,
                                   (-result.score, result.node.dewey, result))
            bound = self._unseen_bound(cursors)
            while buffer and len(emitted) < k and -buffer[0][0] >= bound:
                emitted.append(heapq.heappop(buffer)[2])
                stats.results_emitted += 1
        while buffer and len(emitted) < k:
            emitted.append(heapq.heappop(buffer)[2])
            stats.results_emitted += 1
        return TopKResult(emitted, stats,
                          terminated_early=any(c.peek() is not None
                                               for c in cursors))

    # ------------------------------------------------------------------

    @staticmethod
    def _next_cursor(cursors: List[_ScoreCursor],
                     turn: int) -> Optional[_ScoreCursor]:
        """Round-robin over non-exhausted lists; None ends the scan.

        The scan stops as soon as *any* list runs dry: every unproduced
        result needs a fresh free witness in every list.
        """
        n = len(cursors)
        if any(c.peek() is None for c in cursors):
            return None
        return cursors[turn % n]

    def _unseen_bound(self, cursors: List[_ScoreCursor]) -> float:
        """Bound on unproduced results: F over per-list next scores.

        Sound for any monotone combiner: an unproduced result has an
        unpopped free witness in every list, whose damped score is at
        most that list's next raw score.
        """
        nexts = []
        for cursor in cursors:
            nxt = cursor.peek()
            if nxt is None:
                return -float("inf")
            nexts.append(nxt)
        return self.ranking.combiner.upper_bound(nexts)

    def _check_and_score(self, lists: List[PostingList], u: Dewey,
                         semantics: str, caller_slot: List[int],
                         stats: ExecutionStats) -> Optional[SearchResult]:
        """Verify the candidate against the semantics, then score it."""
        stats.candidates_checked += 1
        if semantics == SLCA:
            # u is the deepest C-node over some occurrence, but another
            # branch below u may hide a deeper C-node: probe each list's
            # occurrences under u for a deeper candidate.
            if self._has_c_descendant(lists, u, stats):
                return None
        else:
            if not self._lookup._verify_elca(lists, u, stats):
                return None
        score, by_list = self._lookup._score(lists, u,
                                             free_only=semantics == ELCA)
        witness = tuple(by_list[slot] for slot in caller_slot)
        node = self.index.node_by_dewey(u)
        return SearchResult(node, len(u), score, witness)

    def _has_c_descendant(self, lists: List[PostingList], u: Dewey,
                          stats: ExecutionStats) -> bool:
        lo, hi = lists[0].descendants_range(u)
        for pos in range(lo, hi):
            w = lists[0].postings[pos].dewey
            deepest = self._lookup._elca_candidate(lists, w, stats)
            if deepest is not None and len(deepest) > len(u):
                return True
        return False


def search_topk(index: InvertedIndex, terms: Sequence[str], k: int,
                semantics: str = ELCA) -> TopKResult:
    """One-shot convenience wrapper around `RDILSearch.search`."""
    return RDILSearch(index).search(terms, k, semantics)
