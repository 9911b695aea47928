"""Join-based top-K keyword search (paper section IV-C).

Levels are processed bottom-up exactly like the general join-based
algorithm, and a level opens with the same column join: the numbers
every term's column carries are the level's C-nodes -- the only ids a
rank join could complete and, once the level is done, the ranges to
erase.  A level nothing joins at ends there.  Otherwise it runs as a
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
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..index.columnar import ColumnarIndex
from ..index.scored import ScoredPostings
from ..obs.tracing import span
from ..planner.plans import JoinPlanner
from ..reliability.deadline import Deadline
from ..reliability.errors import DeadlineExceeded
from ..scoring.ranking import (MaxCombiner, RankingModel, SumCombiner,
                               WeightedSumCombiner)
from .base import (ELCA, SLCA, ExecutionStats, ResultSet, TopKResult,
                   check_semantics, sort_by_score)
from .join_based import LevelRun, check_level
from .topk_join import GROUP, BlockStarJoin, BoundOps


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


class _TopKRun(LevelRun):
    """`LevelRun` plus what ranked levels need: one score order per
    term, the cross-level bounds, and the steps of a ranked level.
    Pending results leave through `flush`, best first."""

    def __init__(self, engine: "TopKKeywordSearch", postings, terms,
                 semantics: str, stats: ExecutionStats, target_k: int):
        super().__init__(engine, postings, terms, semantics, stats)
        # target_k sets the paper's cursor-policy switch (round-robin
        # until K completions, then max-s^i) and caps how many results
        # one emission releases; a pure stream has no K.
        self.target_k = target_k
        self.popped = 0
        self.ops = engine._bound_ops(self.caller_slot)
        self.scored = [ScoredPostings(p, self.damping_base)
                       for p in postings]
        # cross_bound[l-1] bounds every result at levels <= l.
        self.cross_bound = np.maximum.accumulate([
            self.ops.complete([s.max_damped(level) for s in self.scored])
            for level in range(1, self.start_level + 1)]).tolist()

    def below(self, level: int) -> float:
        """Bound on every result of the levels above `level` (numbered
        below it)."""
        return self.cross_bound[level - 2] if level > 1 else -float("inf")

    def rank_join(self, level: int, joined: np.ndarray,
                  run_bounds) -> BlockStarJoin:
        """The level's star join over the free occurrences of the
        C-nodes `joined` (``run_bounds[t]``: their runs in column t),
        best damped score first; its ids are positions in `joined`."""
        inputs = [scored.ranked(level, eraser, runs)
                  for scored, eraser, runs
                  in zip(self.scored, self.erasers, run_bounds)]
        return BlockStarJoin(inputs, self.target_k, self.engine.bound_mode,
                             self.stats, self.ops, joined)

    def flush(self, bound: float) -> ResultSet:
        """Remove and return the pending results scoring >= `bound`,
        best first (document order breaks ties) -- when more than the
        run still owes qualify, only that many and whatever ties with
        the last of them."""
        if self.top < bound:
            return self.nothing
        pending = self.pending()
        hit = pending.scores >= bound
        limit = max(1, self.target_k - self.popped)
        if np.count_nonzero(hit) > limit:
            cut = np.partition(pending.scores[hit], -limit)[-limit]
            hit &= pending.scores >= cut
        out = pending.take(hit)
        rest = pending.take(~hit)
        self.chunks = [rest]
        self.top = float(rest.scores.max()) if len(rest) else -float("inf")
        self.popped += len(out)
        return sort_by_score(out)

    def harvest(self, join: BlockStarJoin, level: int, columns,
                joined: np.ndarray, run_bounds, below: float) -> ResultSet:
        """After a pull: add the block's completions (minus, for SLCA,
        those with an erased sequence in their range) to the pending
        set and return what the live bound now lets out."""
        done, witness = join.take_completed()
        if len(done) and self.semantics == SLCA:
            keep, _ = check_level(
                level, self.postings, columns,
                [(lows[done], highs[done]) for lows, highs in run_bounds],
                self.erasers, SLCA, self.damping_base, with_scores=False)
            done, witness = done[keep], witness[:, keep]
        if len(done):
            self.push(level, joined[done], witness)
        # Both thresholds are at least the unseen-id bound: when the
        # best pending result is below that, skip the group arithmetic.
        top = self.top
        if top < below or top < join.unseen_bound():
            return self.nothing
        return self.flush(max(join.threshold(), below))


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
        # `tracer`, when given, else the thread's ambient one
        self.span = tracer.span if tracer is not None else span
        self.ranking: RankingModel = index.ranking

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
        results = ResultSet.concat(table, emitted,
                                   len(terms)).take(slice(k))
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

        ``deadline`` is polled at level boundaries and after every
        rank-join block (the emission-attempt cadence).  On expiry
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

    def _batches(self, terms: List[str], semantics: str,
                 stats: ExecutionStats, target_k: int, state: _StreamState,
                 deadline: Optional[Deadline]):
        """The emission order as `ResultSet`s, one per emission attempt
        (empty when the bound let nothing out): what `stream` hands out
        a view at a time and `search` cuts at k."""
        if not terms:
            state.finished = True
            return
        try:
            with self.span("postings_fetch", terms=list(terms)) as pspan:
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
        run = _TopKRun(self, postings, terms, semantics, stats, target_k)

        def stop_partial(level: int, engine_bound: float) -> None:
            # Unyielded-but-pending results must stay under the gap
            # too; the best pending score caps them.
            state.partial = True
            state.bound = max(engine_bound, run.top)
            stats.partial = True
            stats.levels_skipped += level

        for level in range(run.start_level, 0, -1):
            below = run.below(level)
            if deadline is not None and deadline.expired():
                if not deadline.partial_ok:
                    deadline.raise_expired()
                stop_partial(level, run.cross_bound[level - 1])
                return
            try:
                columns = [p.column(level) for p in postings]
            except DeadlineExceeded:
                # Raised by a disk column fetch polling the scoped
                # deadline mid-materialization.
                if deadline is None or not deadline.partial_ok:
                    raise
                stop_partial(level, run.cross_bound[level - 1])
                return
            if any(len(c) == 0 for c in columns):
                yield run.flush(below)
                continue
            stats.levels_processed += 1
            joined = run.join_level(level, columns)
            if self._rank_level(run, level, joined):
                run_bounds = [c.runs_of(joined) for c in columns]
                tuples_mark = stats.tuples_scanned
                # Emission needs a *fresh* threshold (group partials can
                # push it up), so it is attempted after every block -- a
                # longer block only delays emission, never corrupts it.
                # The rank-join span stays open across `yield`s, so its
                # duration includes consumer time when the stream is
                # driven incrementally.
                with self.span("rank_join", level=level) as jspan:
                    join = run.rank_join(level, joined, run_bounds)
                    while join.pull():
                        yield run.harvest(join, level, columns, joined,
                                          run_bounds, below)
                        if deadline is not None and deadline.expired():
                            if not deadline.partial_ok:
                                deadline.raise_expired()
                            stop_partial(level,
                                         max(join.threshold(), below))
                            return
                    jspan.tag(tuples=stats.tuples_scanned - tuples_mark,
                              **join.progress())
                # Level drained: every C-node (erased occurrences
                # included) erases its range for the levels above.
                run.erase_level(level, columns, run_bounds)
            else:
                run.finish_level(level, columns, joined)
            if level == 1:
                # Only emission remains: anything yielded from here on
                # does not count as early termination.
                state.finished = True
            yield run.flush(below)
        # All levels done: everything pending is final, in score order.
        state.finished = True
        yield run.flush(-float("inf"))

    def _rank_level(self, run: _TopKRun, level: int,
                    joined: np.ndarray) -> bool:
        """Whether `level`, whose columns join to `joined`, runs as a
        rank join: whenever anything joined; the hybrid wants enough of
        it and finishes the other levels eagerly."""
        return len(joined) > 0

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
