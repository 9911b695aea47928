"""Join-based top-K keyword search (paper section IV-C).

Levels are processed bottom-up by the general join-based algorithm's
own level loop (`JoinBasedSearch._batches`, run here with a K), and a
level opens with the same column join: the numbers every term's column
carries are the level's C-nodes -- the only ids a rank join could
complete and, once the level is done, the ranges to erase.  A level
nothing joins at ends there.  Otherwise it runs as a
*top-K star join* (`repro.algorithms.topk_join`) over the score-ordered
view of the columns (`repro.index.scored`), reduced to the join:

* per term, one descending score order serves every level (damping is
  exponential); a level's ranked input is the free (non-erased)
  occurrences of the joined numbers in that order, and the star join's
  universe is the join itself;
* the star join completes a JDewey number once every keyword has shown a
  free occurrence of it -- which is precisely the ELCA test, so
  completions are results, scored by the sum of first-seen (= maximum)
  damped witnesses;
* a completed result is emitted as soon as its score reaches the global
  bound: the star join's own threshold (unseen + partially joined ids at
  this level, read at block boundaries) combined with the precomputed
  cross-level bound ``T(l) = max_{l' <= l} sum_i U_i(l')`` where
  ``U_i(l')`` is the best possible damped score of term i at level
  ``l'`` (the level-skipping rule of the paper falls out of the max:
  columns with no exact-length sequences can never dominate the column
  below);
* the query terminates the moment K results are emitted.  Otherwise the
  level is drained and the ranges of its C-nodes (erased occurrences
  included -- containment ignores exclusion) are erased for the levels
  above.

Joining first is a semi-join reduction and a stated deviation
(DESIGN.md): the paper rank-joins whole columns and joins them in full
only where a level drains.  It costs what a drained level paid anyway;
in exchange no pull reads a tuple that cannot complete and the join
state is sized to the C-nodes -- with uncorrelated keywords (Figure
10(b)-(c)) the paper's full ranked scan on top of the join becomes a
rank join over the few tuples that joined.  The unreduced engine is the
differential reference in ``tests/reference_topk.py``.

Completions are chunks of the run's pending `ResultSet` until emitted;
what is emitted is a `ResultSet` too (`stream` hands out its views).
The default top-K, `repro.algorithms.hybrid.HybridTopKSearch`, is this
driver with every level finished in bulk instead of rank-joined.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..index.columnar import ColumnarIndex
from ..index.scored import ScoredPostings
from ..planner.plans import JoinPlanner
from ..reliability.deadline import Deadline
from ..scoring.ranking import MaxCombiner, SumCombiner, WeightedSumCombiner
from .base import (ELCA, SLCA, ExecutionStats, ResultSet, TopKResult,
                   check_semantics)
from .join_based import JoinBasedSearch, LevelRun, _StreamState, check_level
from .topk_join import GROUP, BlockStarJoin, BoundOps


class _TopKRun(LevelRun):
    """`LevelRun` with a K: the cross-level bounds, one score order per
    term, and the steps of a ranked level.  Pending results leave
    through `flush`, best first."""

    def __init__(self, engine: "TopKKeywordSearch", postings, terms,
                 semantics: str, stats: ExecutionStats, target_k: int):
        super().__init__(engine, postings, terms, semantics, stats)
        # target_k sets the paper's cursor-policy switch (round-robin
        # until K completions, then max-s^i) and caps how many results
        # one emission releases; a pure stream's K is 2 ** 30.
        self.target_k = target_k
        self.popped = 0
        self.ops = engine._bound_ops(self.caller_slot)
        self.scored = [ScoredPostings(p, self.damping_base)
                       for p in postings]
        # cross_bound[l-1] bounds every result at levels <= l.
        self.cross_bound = np.maximum.accumulate(self.ops.complete(
            [s.level_max[:self.start_level] for s in self.scored])).tolist()

    def rank_join(self, level: int, joined: np.ndarray,
                  runs) -> BlockStarJoin:
        """The level's star join over the free occurrences of the
        C-nodes `joined` (``runs[t]``: their runs in column t), best
        damped score first; its ids are positions in `joined`."""
        inputs = [scored.ranked(level, self.eraser, term_runs, base)
                  for scored, term_runs, base
                  in zip(self.scored, runs, self.bases.tolist())]
        return BlockStarJoin(inputs, self.target_k, self.engine.bound_mode,
                             self.stats, self.ops, joined)

    def flush(self, bound: float) -> ResultSet:
        """Remove and return the pending results scoring >= `bound`,
        best first (document order breaks ties) -- when more than the
        run still owes qualify, only that many and whatever ties with
        the last of them."""
        if not self.chunks or self.top < bound:
            return self.nothing
        rows, scores, witness = self.pending_arrays()
        order = np.lexsort((rows, -scores))
        scores = scores[order]
        out = np.count_nonzero(scores >= bound)     # a prefix of `order`
        limit = max(1, self.target_k - self.popped)
        if out > limit:
            out = np.count_nonzero(scores >= scores[limit - 1])
        taken, rest = order[:out], order[out:]
        if len(rest):
            self.chunks = [(rows[rest], scores[out:], witness[rest])]
            self.top = float(scores[out])
        else:
            self.chunks, self.top = [], -float("inf")
        self.popped += out
        return ResultSet(self.table, rows[taken], scores[:out],
                         witness[taken])

    def harvest(self, join: BlockStarJoin, level: int, columns,
                joined: np.ndarray, runs, below: float) -> ResultSet:
        """After a pull: add the block's completions (minus, for SLCA,
        those with an erased sequence in their range) to the pending
        set and return what the live bound now lets out."""
        done, witness = join.take_completed()
        if len(done) and self.semantics == SLCA:
            spans = self.spans(columns, [term_runs[done]
                                         for term_runs in runs])
            keep, _ = check_level(self, level, spans, with_scores=False)
            done, witness = done[keep], witness[:, keep]
        if len(done):
            self.push(level, joined[done], witness)
        # Both thresholds are at least the unseen-id bound: when the
        # best pending result is below that, skip the group arithmetic.
        top = self.top
        if top < below or top < join.unseen_bound():
            return self.nothing
        return self.flush(max(join.threshold(), below))


class TopKKeywordSearch(JoinBasedSearch):
    """Top-K ELCA/SLCA search over a `ColumnarIndex`: the loop with a K."""

    #: A level something joins at runs as a star rank join (the paper's
    #: plan); `HybridTopKSearch` finishes it in bulk instead.
    rank_levels = True
    #: What a run with a K keeps; `evaluate` (no K) keeps a `LevelRun`.
    run_class = _TopKRun

    def __init__(self, index: ColumnarIndex, bound_mode: str = GROUP,
                 eraser_mode: str = "bitmap",
                 planner: Optional[JoinPlanner] = None,
                 tracer=None):
        super().__init__(index, planner, eraser_mode, tracer)
        self.bound_mode = bound_mode

    def search(self, terms: Sequence[str], k: int,
               semantics: str = ELCA,
               deadline: Optional[Deadline] = None) -> TopKResult:
        """The top-`k` results by score, best first.

        Built on the emission order `stream` hands out: consuming
        batches until k results are owed no more *is* the early
        termination -- the generator stops advancing cursors the moment
        the k-th result unblocks.  The results stay a `ResultSet`.

        ``deadline`` (a `repro.reliability.Deadline`) bounds the run in
        wall-clock terms; with the ``partial`` policy an expired run
        returns the prefix emitted so far with ``TopKResult.partial``
        set and ``TopKResult.bound`` as the guarantee gap.
        """
        check_semantics(semantics)
        stats = ExecutionStats()
        table, terms = self.index.nodes, list(terms)
        if k <= 0:
            return TopKResult(ResultSet.empty(table, len(terms)), stats)
        state = _StreamState()
        batches = self._batches(terms, semantics, stats, k, state, deadline)
        emitted: List[ResultSet] = []
        owed = k
        for batch in batches:
            emitted.append(batch)
            owed -= len(batch)
            if owed <= 0:
                break
        batches.close()
        results = ResultSet.concat(table, emitted, len(terms))
        if len(results) > k:    # ties with the k-th came along
            results = results.take(slice(k))
        stats.results_emitted = len(results)
        with self.span("topk_termination") as tspan:
            tspan.tag(k=k, emitted=len(results),
                      terminated_early=not state.finished,
                      partial=state.partial,
                      levels_processed=stats.levels_processed,
                      tuples_scanned=stats.tuples_scanned)
        return TopKResult(results, stats,
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

        ``deadline`` is polled at level boundaries (and by disk column
        fetches) and, in a ranked level, after every block (the
        emission-attempt cadence).  On expiry
        the ``raise`` policy raises `DeadlineExceeded` out of the
        generator; the ``partial`` policy ends the stream cleanly after
        recording the guarantee gap in the caller-supplied ``_state``.
        Results already yielded are exactly the unbounded run's emission
        prefix either way -- emission always required beating the live
        bound.
        """
        check_semantics(semantics)
        if stats is None:
            stats = ExecutionStats()
        state = _state if _state is not None else _StreamState()
        batches = self._batches(list(terms), semantics, stats, target_k,
                                state, deadline)
        try:
            for batch in batches:
                if len(batch):
                    for result in batch:
                        stats.results_emitted += 1
                        yield result
        finally:
            batches.close()     # ends its open rank-join span now

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


def search_topk(index: ColumnarIndex, terms: Sequence[str], k: int,
                semantics: str = ELCA, bound_mode: str = GROUP,
                deadline: Optional[Deadline] = None) -> TopKResult:
    """One-shot convenience wrapper around `TopKKeywordSearch.search`."""
    return TopKKeywordSearch(index, bound_mode).search(terms, k, semantics,
                                                       deadline=deadline)
