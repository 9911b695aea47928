"""Index-based baseline (Xu & Papakonstantinou [6], [8]).

Drives the evaluation from the *shortest* posting list: for each
occurrence ``v`` there, binary searches locate the closest occurrences
of every other keyword (the ``lm``/``rm`` lookups), which yield the
deepest node containing ``v`` and all keywords -- the candidate
``elca_can(v)``.

* **SLCA** (Indexed Lookup Eager): the SLCA set is exactly the candidate
  set minus candidates that are ancestors of other candidates
  [Xu & Papakonstantinou 2005, Thm. 1].
* **ELCA** (Indexed Stack flavour): every ELCA equals ``elca_can(v)``
  for one of its free shortest-list witnesses, so the candidate set is a
  superset; each distinct candidate is then verified keyword by keyword
  by hopping over blocked C-subtrees (each hop is one binary search,
  mirroring the child-interval walk of the Indexed Stack algorithm).

Complexity is O(d * k * |L1| * log|L|) plus the verification hops --
excellent when the shortest list is tiny, degrading as it grows, which
is precisely the crossover Figure 9 measures.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Sequence, Tuple

from ..index.inverted import InvertedIndex, PostingList
from ..scoring.ranking import RankingModel
from ..xmltree.dewey import (Dewey, common_prefix, is_prefix,
                             subtree_upper_bound)
from .base import (ELCA, SLCA, ExecutionStats, SearchResult, check_semantics,
                   sort_by_document_order)


class IndexBasedSearch:
    """Complete ELCA/SLCA evaluation via shortest-list-driven lookups."""

    def __init__(self, index: InvertedIndex):
        self.index = index
        self.ranking: RankingModel = index.ranking

    # ------------------------------------------------------------------
    # lookup primitives
    # ------------------------------------------------------------------

    def _deepest_match(self, plist: PostingList, v: Dewey,
                       stats: ExecutionStats) -> Optional[Dewey]:
        """LCA of `v` with its closest occurrence in `plist` (the deeper
        of lca(v, lm) and lca(v, rm))."""
        stats.lookups += 1
        left, right = plist.neighbours(v)
        best: Optional[Dewey] = None
        for posting in (left, right):
            if posting is None:
                continue
            anc = common_prefix(v, posting.dewey)
            if best is None or len(anc) > len(best):
                best = anc
        return best

    def _elca_candidate(self, lists: List[PostingList], v: Dewey,
                        stats: ExecutionStats) -> Optional[Dewey]:
        """Deepest node containing `v` and every keyword.

        The per-keyword deepest containers are all ancestors-or-self of
        `v`, hence totally ordered; the shallowest of them is the answer.
        Every list is probed: `v` may come from any of them (candidate
        generation probes the shortest list, verification probes all),
        and when `v` belongs to the probed list the lookup returns `v`
        itself, adding no constraint.
        """
        candidate: Optional[Dewey] = v
        for plist in lists:
            match = self._deepest_match(plist, v, stats)
            if match is None:
                return None
            if candidate is None or len(match) < len(candidate):
                candidate = match
        return candidate

    # ------------------------------------------------------------------
    # ELCA verification: hop over blocked C-subtrees
    # ------------------------------------------------------------------

    def _has_free_witness(self, lists: List[PostingList], plist: PostingList,
                          u: Dewey, stats: ExecutionStats) -> bool:
        """Does `plist` hold an occurrence under `u` with no C-node
        strictly between?  Blocked subtrees are skipped wholesale: each
        failed probe reveals the blocking C-node, and the walk resumes
        past its subtree."""
        lo, hi = plist.descendants_range(u)
        deweys = plist.deweys
        pos = lo
        while pos < hi:
            w = deweys[pos]
            blocker = self._elca_candidate(lists, w, stats)
            if blocker is None:
                return False
            if len(blocker) <= len(u):
                # No C-node below u over w; u itself contains everything.
                return True
            # `blocker` is a C-node strictly below u: skip its subtree.
            pos = bisect.bisect_left(deweys, subtree_upper_bound(blocker),
                                     lo, hi)
            stats.lookups += 1
        return False

    def _verify_elca(self, lists: List[PostingList], u: Dewey,
                     stats: ExecutionStats) -> bool:
        stats.candidates_checked += 1
        return all(self._has_free_witness(lists, plist, u, stats)
                   for plist in lists)

    # ------------------------------------------------------------------
    # scoring
    # ------------------------------------------------------------------

    def _score(self, lists: List[PostingList], u: Dewey,
               free_only: bool) -> Tuple[float, Tuple[float, ...]]:
        """Exact result score: best damped free witness per keyword."""
        damping = self.ranking.damping
        witness: List[float] = []
        for plist in lists:
            lo, hi = plist.descendants_range(u)
            best = 0.0
            pos = lo
            deweys = plist.deweys
            while pos < hi:
                posting = plist.postings[pos]
                if free_only:
                    blocker = self._blocking_c_node(lists, posting.dewey, u)
                    if blocker is not None:
                        pos = bisect.bisect_left(
                            deweys, subtree_upper_bound(blocker), lo, hi)
                        continue
                damped = posting.score * damping(posting.level - len(u))
                if damped > best:
                    best = damped
                pos += 1
            witness.append(best)
        return self.ranking.score_result(witness), tuple(witness)

    def _blocking_c_node(self, lists: List[PostingList], w: Dewey,
                         u: Dewey) -> Optional[Dewey]:
        """The deepest C-node strictly between `u` and `w`, if any."""
        throwaway = ExecutionStats()
        blocker = self._elca_candidate(lists, w, throwaway)
        if blocker is not None and len(blocker) > len(u):
            return blocker
        return None

    # ------------------------------------------------------------------
    # public entry point
    # ------------------------------------------------------------------

    def evaluate(self, terms: Sequence[str], semantics: str = ELCA,
                 with_scores: bool = True
                 ) -> Tuple[List[SearchResult], ExecutionStats]:
        check_semantics(semantics)
        stats = ExecutionStats()
        terms = list(terms)
        if not terms:
            return [], stats
        lists = self.index.query_lists(terms)
        if any(len(lst) == 0 for lst in lists):
            return [], stats
        # Witness scores are reported in the caller's term order even
        # though execution uses the shortest-first list order.
        list_slot = {lst.term: i for i, lst in enumerate(lists)}
        caller_slot = [list_slot[t] for t in terms]

        candidates: Dict[Dewey, None] = {}
        for posting in lists[0].postings:
            stats.tuples_scanned += 1
            candidate = self._elca_candidate(lists, posting.dewey, stats)
            if candidate:
                candidates.setdefault(candidate, None)

        ordered = sorted(candidates)
        accepted: List[Dewey] = []
        if semantics == SLCA:
            # A candidate is an SLCA unless its immediate successor in
            # Dewey order is a descendant (descendants are contiguous).
            for i, u in enumerate(ordered):
                stats.candidates_checked += 1
                if i + 1 < len(ordered) and is_prefix(u, ordered[i + 1]):
                    continue
                accepted.append(u)
        else:
            accepted = [u for u in ordered
                        if self._verify_elca(lists, u, stats)]

        results: List[SearchResult] = []
        free_only = semantics == ELCA
        for u in accepted:
            node = self.index.node_by_dewey(u)
            if with_scores:
                score, by_list = self._score(lists, u, free_only)
                witness = tuple(by_list[slot] for slot in caller_slot)
            else:
                score, witness = 0.0, ()
            results.append(SearchResult(node, len(u), score, witness))
            stats.results_emitted += 1
        return sort_by_document_order(results), stats


def search(index: InvertedIndex, terms: Sequence[str],
           semantics: str = ELCA) -> List[SearchResult]:
    """One-shot convenience wrapper around `IndexBasedSearch.evaluate`."""
    results, _stats = IndexBasedSearch(index).evaluate(terms, semantics)
    return results
