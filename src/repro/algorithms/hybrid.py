"""Hybrid plan selection (paper section V-D).

Figure 10 shows the two join-based algorithms are complementary: the
top-K star join wins when the keywords are correlated (many results,
early termination), while the complete join-based evaluation wins when
results are scarce (the rank-join degenerates into a more expensive full
scan).  The deciding quantity is the per-level join cardinality.

`HybridTopKSearch` implements the hybrid the paper sketches: a score
index exists on top of the JDewey columns (both orders available), and
at *every level* a cardinality estimate picks the plan --

* estimated result count >= ``switch_factor * k`` remaining  ->  run the
  level as a top-K star join with threshold-based early emission;
* otherwise                                               ->  evaluate
  the level eagerly with the ordinary column join (cheap when few or no
  numbers match) and buffer the scored results.

Cardinality is re-estimated per level, giving the context-awareness of
section III-C: the same query may scan eagerly at the paper level and
rank-join at the conference level.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Sequence

from ..index.columnar import ColumnarIndex
from ..index.scored import ScoredPostings
from ..planner.cardinality import CardinalityEstimator
from ..planner.plans import JoinPlanner
from .base import (ELCA, SLCA, ExecutionStats, SearchResult, TopKResult,
                   check_semantics)
from .erasure import make_eraser
from .topk_join import GROUP, TopKStarJoin
from .topk_keyword import TopKKeywordSearch, _CursorInput


class HybridTopKSearch(TopKKeywordSearch):
    """Cardinality-driven mix of the complete and top-K join plans."""

    def __init__(self, index: ColumnarIndex, bound_mode: str = GROUP,
                 eraser_mode: str = "bitmap",
                 planner: Optional[JoinPlanner] = None,
                 estimator: Optional[CardinalityEstimator] = None,
                 switch_factor: float = 4.0):
        super().__init__(index, bound_mode, eraser_mode, planner)
        self.estimator = (estimator if estimator is not None
                          else CardinalityEstimator())
        self.switch_factor = switch_factor

    def search(self, terms: Sequence[str], k: int,
               semantics: str = ELCA) -> TopKResult:
        check_semantics(semantics)
        stats = ExecutionStats()
        terms = list(terms)
        if not terms or k <= 0:
            return TopKResult([], stats)
        postings = self.index.query_postings(terms)
        if any(len(p) == 0 for p in postings):
            return TopKResult([], stats)
        term_order = {p.term: i for i, p in enumerate(postings)}
        caller_slot = [term_order[t] for t in terms]
        ops = self._bound_ops(caller_slot)

        damping_base = self.ranking.damping.base
        scored = [ScoredPostings(p, damping_base) for p in postings]
        erasers = [make_eraser(self.eraser_mode, len(p)) for p in postings]
        start_level = min(p.max_len for p in postings)
        cross_bound = self._cross_level_bounds(scored, start_level, ops)

        buffer: list = []
        emitted: list = []
        self.plan_trace: List[str] = []

        for level in range(start_level, 0, -1):
            columns = [p.column(level) for p in postings]
            below = cross_bound[level - 2] if level > 1 else -float("inf")
            if any(len(c) == 0 for c in columns):
                if self._flush(buffer, emitted, k, below):
                    return TopKResult(emitted, stats, terminated_early=True)
                continue
            stats.levels_processed += 1
            estimate = self.estimator.estimate([c.distinct for c in columns])
            remaining = k - len(emitted)
            use_topk = estimate >= self.switch_factor * remaining
            self.plan_trace.append("topk" if use_topk else "eager")
            if use_topk:
                done = self._topk_level(postings, columns, scored, erasers,
                                        semantics, caller_slot, level, k,
                                        below, buffer, emitted, stats, ops)
                if done:
                    return TopKResult(emitted, stats, terminated_early=True)
            else:
                self._eager_level(postings, columns, erasers, semantics,
                                  caller_slot, level, buffer, stats)
            self._erase_level(columns, erasers, stats, level)
            if self._flush(buffer, emitted, k, below):
                return TopKResult(emitted, stats, terminated_early=level > 1)
        self._flush(buffer, emitted, k, -float("inf"))
        return TopKResult(emitted, stats)

    # ------------------------------------------------------------------

    def _topk_level(self, postings, columns, scored, erasers, semantics,
                    caller_slot, level, k, below, buffer, emitted,
                    stats, ops=None) -> bool:
        """Run one level as a top-K star join; True if K got emitted."""
        inputs = [
            _CursorInput(s.cursor(level, skip=e.is_erased))
            for s, e in zip(scored, erasers)
        ]
        join = TopKStarJoin(inputs, k, self.bound_mode, stats, ops)
        consumed = 0
        steps_since_attempt = 0
        while join.step():
            steps_since_attempt += 1
            if (len(join.completed) == consumed
                    and steps_since_attempt < 16):
                continue
            steps_since_attempt = 0
            for completed in join.completed[consumed:]:
                result = self._materialize(completed, level, postings,
                                           columns, erasers, semantics,
                                           caller_slot)
                if result is not None:
                    heapq.heappush(buffer,
                                   (-result.score, result.node.dewey, result))
            consumed = len(join.completed)
            bound = max(join.threshold(), below)
            while buffer and len(emitted) < k and -buffer[0][0] >= bound:
                emitted.append(heapq.heappop(buffer)[2])
                stats.results_emitted += 1
            if len(emitted) >= k:
                return True
        for completed in join.completed[consumed:]:
            result = self._materialize(completed, level, postings, columns,
                                       erasers, semantics, caller_slot)
            if result is not None:
                heapq.heappush(buffer,
                               (-result.score, result.node.dewey, result))
        return False

    def _eager_level(self, postings, columns, erasers, semantics,
                     caller_slot, level, buffer, stats) -> None:
        """Evaluate one level with the complete column join."""
        joined = self.planner.intersect_all(
            [c.distinct for c in columns], stats, level)
        damping_base = self.ranking.damping.base
        for number in joined:
            stats.candidates_checked += 1
            witness = [0.0] * len(postings)
            ok = True
            for t, column in enumerate(columns):
                a, b = column.run_of(int(number))
                ordinals = column.seq_idx[a:b]
                lo, hi = int(ordinals[0]), int(ordinals[-1]) + 1
                erased = erasers[t].erased_count(lo, hi)
                if semantics == SLCA:
                    if erased:
                        ok = False
                        break
                    free = ordinals
                else:
                    if erased >= b - a:
                        ok = False
                        break
                    free = (ordinals[erasers[t].free_mask(ordinals)]
                            if erased else ordinals)
                p = postings[t]
                damped = (p.scores[free]
                          * damping_base ** (p.lengths[free] - level))
                witness[t] = float(damped.max())
            if not ok:
                continue
            node = self.index.node_at(level, int(number))
            ordered = tuple(witness[slot] for slot in caller_slot)
            score = self.ranking.score_result(ordered)
            heapq.heappush(buffer, (-score, node.dewey,
                                    SearchResult(node, level, score,
                                                 ordered)))
