"""Join-based top-K keyword search (paper section IV-C).

Levels are processed bottom-up exactly like the general join-based
algorithm, but each level's join runs as a *top-K star join* over the
score-ordered columnar cursors (`repro.index.scored`):

* per term, sequences are grouped by length so each group has a single
  score order valid at every level; a per-level cursor merges the group
  heads online;
* the star join completes a JDewey number once every keyword has shown a
  *free* (non-erased) occurrence of it -- which is precisely the ELCA
  test, so completions are results, scored by the sum of first-seen
  (= maximum) damped witnesses;
* a completed result is emitted as soon as its score reaches the global
  bound: the star join's own threshold (unseen + partially joined ids at
  this level) combined with the precomputed cross-level bound
  ``T(l) = max_{l' <= l} sum_i U_i(l')`` where ``U_i(l')`` is the best
  possible damped score of term i at level ``l'`` (the level-skipping
  rule of the paper falls out of the max: columns with no exact-length
  sequences can never dominate the column below);
* the query terminates the moment K results are emitted.  Otherwise the
  level is drained, the full-column join identifies every C-node at the
  level (erased occurrences included -- containment ignores exclusion),
  and their ranges are erased for the levels above.

The completeness/efficiency trade the paper measures falls out of the
structure: with highly correlated keywords many results complete early
and the scan stops after a few tuples; with uncorrelated keywords the
algorithm drains every level and ends up doing strictly more work than
the general join-based algorithm (Figure 10(a) versus 10(b)-(c)).
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..index.columnar import ColumnarIndex, ColumnarPostings
from ..index.scored import ColumnCursor, ScoredPostings
from ..obs.profiler import profile_phase
from ..obs.tracing import NULL_TRACER
from ..planner.plans import JoinPlanner
from ..reliability.deadline import Deadline
from ..reliability.errors import DeadlineExceeded
from ..scoring.ranking import RankingModel
from .base import (ELCA, SLCA, ExecutionStats, SearchResult, TopKResult,
                   check_semantics)
from ..scoring.ranking import (MaxCombiner, SumCombiner,
                               WeightedSumCombiner)
from .erasure import make_eraser
from .topk_join import GROUP, BoundOps, TopKStarJoin


class _CursorInput:
    """Adapts a `ColumnCursor` to the star join's RankedInput protocol."""

    __slots__ = ("cursor",)

    def __init__(self, cursor: ColumnCursor):
        self.cursor = cursor

    def peek_score(self) -> Optional[float]:
        return self.cursor.peek_score()

    def pop(self) -> Optional[Tuple[int, float]]:
        item = self.cursor.pop()
        if item is None:
            return None
        number, _ordinal, score = item
        return number, score


class _StreamState:
    """Out-of-band stream outcome: completion flag plus, for budgeted
    runs stopped early under the "partial" policy, the guarantee gap.

    ``bound`` is the score below which the partial run proves nothing:
    every result it *did* yield scored at least ``bound`` (emission
    requires beating the live threshold), and any result it never
    reached scores at most ``bound``.  The yielded list is therefore a
    prefix of the unbounded run's emission order."""

    __slots__ = ("finished", "partial", "bound")

    def __init__(self):
        self.finished = False
        self.partial = False
        self.bound: Optional[float] = None


class TopKKeywordSearch:
    """Top-K ELCA/SLCA search over a `ColumnarIndex`."""

    def __init__(self, index: ColumnarIndex, bound_mode: str = GROUP,
                 eraser_mode: str = "bitmap",
                 planner: Optional[JoinPlanner] = None,
                 tracer=None):
        self.index = index
        self.bound_mode = bound_mode
        self.eraser_mode = eraser_mode
        self.planner = planner if planner is not None else JoinPlanner()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.ranking: RankingModel = index.ranking

    def search(self, terms: Sequence[str], k: int,
               semantics: str = ELCA,
               deadline: Optional[Deadline] = None) -> TopKResult:
        """The top-`k` results by score, best first.

        Built on `stream`: consuming exactly k results *is* the early
        termination -- the generator stops advancing cursors the moment
        the k-th result unblocks.

        ``deadline`` (a `repro.reliability.Deadline`) bounds the run in
        wall-clock terms; with the ``partial`` policy an expired run
        returns the prefix emitted so far with ``TopKResult.partial``
        set and ``TopKResult.bound`` as the guarantee gap.
        """
        stats = ExecutionStats()
        if k <= 0:
            check_semantics(semantics)
            return TopKResult([], stats)
        state = _StreamState()
        generator = self.stream(terms, semantics, stats=stats,
                                target_k=k, _state=state,
                                deadline=deadline)
        emitted: List[SearchResult] = []
        for result in generator:
            emitted.append(result)
            if len(emitted) >= k:
                break
        generator.close()
        with self.tracer.span("topk_termination") as tspan, \
                profile_phase("topk"):
            tspan.tag(k=k, emitted=len(emitted),
                      terminated_early=not state.finished,
                      partial=state.partial,
                      levels_processed=stats.levels_processed,
                      tuples_scanned=stats.tuples_scanned)
        return TopKResult(emitted, stats,
                          terminated_early=not state.finished,
                          partial=state.partial, bound=state.bound)

    def stream(self, terms: Sequence[str], semantics: str = ELCA,
               stats: Optional[ExecutionStats] = None,
               target_k: int = 2 ** 30, _state=None,
               deadline: Optional[Deadline] = None):
        """Yield every result best-first, lazily (progressive top-K).

        The paper's "generated results ... are output without blocking"
        as a generator: each `next()` advances the bottom-up rank joins
        only until one more result's score provably dominates everything
        unseen.  Abandoning the generator abandons the remaining work,
        so ``itertools.islice(stream(...), k)`` behaves exactly like
        `search(..., k)`.

        ``deadline`` is polled at level boundaries and every few
        rank-join retrievals (the emission-attempt cadence).  On expiry
        the ``raise`` policy raises `DeadlineExceeded` out of the
        generator; the ``partial`` policy ends the stream cleanly after
        recording the guarantee gap in the caller-supplied ``_state``.
        Results already yielded are exactly the unbounded run's emission
        prefix either way -- emission always required beating the live
        bound.
        """
        check_semantics(semantics)
        tracer = self.tracer
        if stats is None:
            stats = ExecutionStats()
        state = _state if _state is not None else _StreamState()
        terms = list(terms)
        if not terms:
            state.finished = True
            return

        def stop_partial(level: int, engine_bound: float) -> None:
            # Unyielded-but-buffered results must stay under the gap
            # too; the buffer top caps them (heap root = best score).
            state.partial = True
            state.bound = max(engine_bound,
                              -buffer[0][0] if buffer else -float("inf"))
            stats.partial = True
            stats.levels_skipped += level

        buffer: List[Tuple[float, Tuple[int, ...], SearchResult]] = []
        try:
            with tracer.span("postings_fetch", terms=list(terms)) as pspan, \
                    profile_phase("fetch"):
                postings = self.index.query_postings(terms)
                pspan.tag(list_sizes=[len(p) for p in postings])
        except DeadlineExceeded:
            # A scoped deadline expired while fetching postings; with no
            # bound arithmetic yet the gap is vacuous (inf).
            if deadline is None or not deadline.partial_ok:
                raise
            state.partial = True
            state.bound = float("inf")
            stats.partial = True
            return
        if any(len(p) == 0 for p in postings):
            state.finished = True
            return
        term_order = {p.term: i for i, p in enumerate(postings)}
        caller_slot = [term_order[t] for t in terms]
        ops = self._bound_ops(caller_slot)

        damping_base = self.ranking.damping.base
        scored = [ScoredPostings(p, damping_base) for p in postings]
        erasers = [make_eraser(self.eraser_mode, len(p)) for p in postings]
        start_level = min(p.max_len for p in postings)
        cross_bound = self._cross_level_bounds(scored, start_level, ops)

        # `buffer` (declared above, so the partial-stop helper closes
        # over it) holds completed-but-unemitted results: max-heap by
        # score.
        for level in range(start_level, 0, -1):
            below = cross_bound[level - 2] if level > 1 else -float("inf")
            if deadline is not None and deadline.expired():
                if not deadline.partial_ok:
                    deadline.raise_expired()
                stop_partial(level, cross_bound[level - 1])
                return
            try:
                columns = [p.column(level) for p in postings]
            except DeadlineExceeded:
                # Raised by a lazy column fetch polling the scoped
                # deadline mid-materialization.
                if deadline is None or not deadline.partial_ok:
                    raise
                stop_partial(level, cross_bound[level - 1])
                return
            if any(len(c) == 0 for c in columns):
                while buffer and -buffer[0][0] >= below:
                    stats.results_emitted += 1
                    yield heapq.heappop(buffer)[2]
                continue
            stats.levels_processed += 1
            tuples_mark = stats.tuples_scanned
            inputs = [
                _CursorInput(s.cursor(level, skip=e.is_erased))
                for s, e in zip(scored, erasers)
            ]
            # target_k sets the paper's cursor-policy switch (round-robin
            # until K completions, then max-s^i); a pure stream has no K
            # and stays round-robin.
            join = TopKStarJoin(inputs, target_k, self.bound_mode, stats,
                                ops)
            consumed = 0
            # Emission needs a *fresh* threshold (group partials can push
            # it up), so attempts happen when completions arrive or every
            # few retrievals -- skipping attempts only delays emission,
            # never corrupts it.  The rank-join span stays open across
            # `yield`s, so its duration includes consumer time when the
            # stream is driven incrementally.
            steps_since_attempt = 0
            with tracer.span("rank_join", level=level) as jspan, \
                    profile_phase("rank_join"):
                while join.step():
                    steps_since_attempt += 1
                    if (len(join.completed) == consumed
                            and steps_since_attempt < 16):
                        continue
                    steps_since_attempt = 0
                    for completed in join.completed[consumed:]:
                        result = self._materialize(
                            completed, level, postings, columns, erasers,
                            semantics, caller_slot)
                        if result is not None:
                            heapq.heappush(
                                buffer,
                                (-result.score, result.node.dewey, result))
                    consumed = len(join.completed)
                    bound = max(join.threshold(), below)
                    while buffer and -buffer[0][0] >= bound:
                        stats.results_emitted += 1
                        yield heapq.heappop(buffer)[2]
                    # Same cadence as emission attempts: cheap (the
                    # threshold is already fresh) and bounded lag.
                    if deadline is not None and deadline.expired():
                        if not deadline.partial_ok:
                            deadline.raise_expired()
                        stop_partial(level, bound)
                        return
                for completed in join.completed[consumed:]:
                    result = self._materialize(completed, level, postings,
                                               columns, erasers, semantics,
                                               caller_slot)
                    if result is not None:
                        heapq.heappush(buffer,
                                       (-result.score, result.node.dewey,
                                        result))
                jspan.tag(tuples=stats.tuples_scanned - tuples_mark,
                          **join.progress())
            # Level drained: determine every C-node (erased occurrences
            # included) and erase their ranges for the levels above.
            self._erase_level(columns, erasers, stats, level)
            if level == 1:
                # Only emission remains: anything yielded from here on
                # does not count as early termination.
                state.finished = True
            while buffer and -buffer[0][0] >= below:
                stats.results_emitted += 1
                yield heapq.heappop(buffer)[2]
        # All levels done: everything buffered is final, in score order.
        state.finished = True
        while buffer:
            stats.results_emitted += 1
            yield heapq.heappop(buffer)[2]

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _bound_ops(self, caller_slot: List[int]) -> BoundOps:
        """Combiner-specific bound arithmetic, in execution slot order.

        The paper's algorithms only require monotonicity of F; the
        star-join bounds are implemented for sum (the paper's
        exposition), weighted sum and max.  Other combiners work on the
        complete-result path but have no top-K bound arithmetic here.
        """
        combiner = self.ranking.combiner
        if isinstance(combiner, WeightedSumCombiner):
            if len(combiner.weights) != len(caller_slot):
                raise ValueError(
                    f"{len(combiner.weights)} weights for "
                    f"{len(caller_slot)} query terms")
            input_weights = [0.0] * len(caller_slot)
            for caller_index, slot in enumerate(caller_slot):
                input_weights[slot] = combiner.weights[caller_index]
            return BoundOps("weighted", input_weights)
        if isinstance(combiner, MaxCombiner):
            return BoundOps("max")
        if isinstance(combiner, SumCombiner):
            return BoundOps("sum")
        raise NotImplementedError(
            f"top-K bounds not implemented for "
            f"{type(combiner).__name__}; use the complete-result path "
            "(db.search_ranked) or a sum/weighted/max combiner")

    def _cross_level_bounds(self, scored: List[ScoredPostings],
                            start_level: int,
                            ops: BoundOps) -> List[float]:
        """``cross_bound[l-1]`` bounds every result at levels <= l."""
        per_level = []
        for level in range(1, start_level + 1):
            per_level.append(
                ops.complete([s.max_damped(level) for s in scored]))
        bounds: List[float] = []
        running = -float("inf")
        for level_sum in per_level:
            running = max(running, level_sum)
            bounds.append(running)
        return bounds

    def _materialize(self, completed, level: int,
                     postings: List[ColumnarPostings], columns, erasers,
                     semantics: str,
                     caller_slot: List[int]) -> Optional[SearchResult]:
        """Turn a star-join completion into a result (or reject for SLCA)."""
        number = completed.key
        if semantics == SLCA:
            for t, column in enumerate(columns):
                a, b = column.run_of(number)
                ordinals = column.seq_idx[a:b]
                lo, hi = int(ordinals[0]), int(ordinals[-1]) + 1
                if erasers[t].erased_count(lo, hi):
                    return None
        node = self.index.node_at(level, number)
        witness = tuple(completed.scores[slot] for slot in caller_slot)
        score = self.ranking.score_result(witness)
        return SearchResult(node, level, score, witness)

    def _erase_level(self, columns, erasers, stats: ExecutionStats,
                     level: int) -> None:
        plan_mark = len(stats.per_level_plan)
        erasure_mark = stats.erasures
        with self.tracer.span("erase", level=level) as espan, \
                profile_phase("erase"):
            joined = self.planner.intersect_all(
                [c.distinct for c in columns], stats, level)
            espan.tag(
                plan=[alg for _lvl, alg
                      in stats.per_level_plan[plan_mark:]],
                inputs=[int(c.n_distinct) for c in columns],
                output=int(len(joined)))
            if len(joined) == 0:
                return
            for t, column in enumerate(columns):
                idx = np.searchsorted(column.distinct, joined)
                lows = column.run_starts[idx]
                highs = column.run_starts[idx + 1]
                for j in range(len(joined)):
                    ordinals = column.seq_idx[int(lows[j]):int(highs[j])]
                    erasers[t].mark(int(ordinals[0]), int(ordinals[-1]) + 1)
                    stats.erasures += len(ordinals)
            espan.tag(erased=stats.erasures - erasure_mark)

    @staticmethod
    def _flush(buffer, emitted: List[SearchResult], k: int,
               bound: float) -> bool:
        """Emit buffered results that beat `bound`; True if K reached."""
        while buffer and len(emitted) < k and -buffer[0][0] >= bound:
            emitted.append(heapq.heappop(buffer)[2])
        return len(emitted) >= k


def search_topk(index: ColumnarIndex, terms: Sequence[str], k: int,
                semantics: str = ELCA, bound_mode: str = GROUP,
                deadline: Optional[Deadline] = None) -> TopKResult:
    """One-shot convenience wrapper around `TopKKeywordSearch.search`."""
    return TopKKeywordSearch(index, bound_mode).search(terms, k, semantics,
                                                       deadline=deadline)
