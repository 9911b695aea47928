"""The per-candidate level check, kept as the tests' reference.

`repro.algorithms.join_based.check_level` applies the ELCA/SLCA test to
every joined number of a level in bulk, over all terms at once against
one query-wide eraser, and its survivors go straight into a
`ResultSet`.  This is the formulation it replaced in `src/` (the
former ``JoinBasedSearch(vectorized=False)`` path): one joined number at
a time, one `SearchResult` per answer, scored through
`RankingModel.score_result`.  It stays here unchanged in behaviour, so
`tests/test_vectorized_equivalence.py` has an independent account of
what the bulk check, the bulk scorer and the result columns must return
-- same nodes, levels, float scores, witness tuples and work counters.
Its erasers are the section III-E interval structure
(``tests/reference_erasure.py``), one per term, so it shares no eraser
code with the engine and asserts Figure 4's contained-or-disjoint
geometry as it marks.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.algorithms.base import (ELCA, SLCA, ExecutionStats, SearchResult,
                                   check_semantics, sort_by_document_order)
from repro.index.columnar import ColumnarPostings
from repro.planner.plans import JoinPlanner
from repro.reliability.errors import DeadlineExceeded
from tests.reference_erasure import RangeCheckingEraser


class PerCandidateJoinSearch:
    """Complete ELCA/SLCA evaluation, one candidate at a time."""

    def __init__(self, index, planner: Optional[JoinPlanner] = None):
        self.index = index
        self.planner = planner if planner is not None else JoinPlanner()
        self.ranking = index.ranking

    def evaluate(self, terms: Sequence[str], semantics: str = ELCA,
                 with_scores: bool = True, deadline=None
                 ) -> Tuple[List[SearchResult], ExecutionStats]:
        check_semantics(semantics)
        stats = ExecutionStats()
        terms = list(terms)
        if not terms:
            return [], stats
        postings = self.index.query_postings(terms)
        if any(len(p) == 0 for p in postings):
            return [], stats
        term_order = {p.term: i for i, p in enumerate(postings)}
        caller_slot = [term_order[t] for t in terms]
        start_level = min(p.max_len for p in postings)
        erasers = [RangeCheckingEraser(len(p)) for p in postings]
        damping_base = self.ranking.damping.base
        results: List[SearchResult] = []

        for level in range(start_level, 0, -1):
            if deadline is not None and deadline.expired():
                if not deadline.partial_ok:
                    deadline.raise_expired()
                stats.partial = True
                stats.levels_skipped += level
                break
            try:
                self._process_level(level, postings, erasers, semantics,
                                    with_scores, caller_slot, damping_base,
                                    stats, results)
            except DeadlineExceeded:
                if deadline is None or not deadline.partial_ok:
                    raise
                stats.partial = True
                stats.levels_skipped += level
                break
        return sort_by_document_order(results), stats

    def _process_level(self, level, postings, erasers, semantics,
                       with_scores, caller_slot, damping_base, stats,
                       results) -> None:
        columns = [p.column(level) for p in postings]
        if any(len(c) == 0 for c in columns):
            return
        stats.levels_processed += 1
        joined = self.planner.intersect_all(
            [c.distinct for c in columns], stats, level)
        if len(joined) == 0:
            return
        spans = [column.ordinal_spans(column.runs_of(joined))
                 for column in columns]
        for j, number in enumerate(joined):
            stats.candidates_checked += 1
            emitted = self._check_candidate(
                int(number), level, j, postings, spans,
                erasers, semantics, with_scores, caller_slot, damping_base)
            if emitted is not None:
                results.append(emitted)
                stats.results_emitted += 1
        # Erase every joined range *after* the level is fully checked:
        # same-level candidates never interact (disjoint subtrees).  One
        # eraser per term, independent of the query-wide one in `src/`.
        for (lows, highs), eraser in zip(spans, erasers):
            for lo, hi in zip(lows.tolist(), highs.tolist()):
                eraser.mark(lo, hi)
            stats.erasures += int((highs - lows).sum())

    def _check_candidate(self, number: int, level: int, j: int,
                         postings: List[ColumnarPostings],
                         spans, erasers, semantics: str,
                         with_scores: bool, caller_slot: List[int],
                         damping_base: float) -> Optional[SearchResult]:
        """Apply the ELCA/SLCA test to one joined number."""
        witness: List[float] = [0.0] * len(postings)
        for t in range(len(postings)):
            lo, hi = int(spans[t][0][j]), int(spans[t][1][j])
            ordinals = np.arange(lo, hi)
            erased = erasers[t].erased_count(lo, hi)
            if semantics == SLCA:
                if erased:
                    return None
                free_ordinals = ordinals
            else:
                if erased >= hi - lo:
                    return None  # no free witness for this keyword
                if erased:
                    mask = erasers[t].free_mask(ordinals)
                    free_ordinals = ordinals[mask]
                else:
                    free_ordinals = ordinals
            if with_scores:
                p = postings[t]
                damped = (p.scores[free_ordinals]
                          * damping_base
                          ** (p.lengths[free_ordinals] - level))
                witness[t] = float(damped.max())
        node = self.index.node_at(level, number)
        ordered = tuple(witness[slot] for slot in caller_slot)
        score = self.ranking.score_result(ordered) if with_scores else 0.0
        return SearchResult(node, level, score, ordered)
