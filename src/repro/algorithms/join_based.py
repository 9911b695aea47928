"""The join-based algorithm for complete ELCA/SLCA results (section III).

Query evaluation is reduced to per-level relational joins over the
columnar JDewey index: at level ``l`` the JDewey numbers present in all
k term columns are exactly the nodes whose subtrees contain every
keyword (the C-nodes) at that level.  Levels are processed bottom-up,
so the semantic pruning is a pure bookkeeping step:

* when a number joins at level ``l``, every sequence through it is
  *erased* for all higher levels (those occurrences already belong to a
  subtree containing all keywords);
* an **ELCA** is a joined number that retains at least one *free*
  (non-erased) witness per keyword;
* an **SLCA** is a joined number with *no* erased sequence in its range
  (no C-node strictly below it).

Note on fidelity: the paper's Algorithm 1 pseudo-code erases only the
matched pairs, which under-prunes when one keyword's occurrences under a
C-node outnumber another's; the refined range-checking formulation in
section III-E ("when the join of column l-1 finishes, all the sequences
within A_k are excluded") erases the whole range, which is the rule that
matches the ELCA definition.  This module implements the range rule.

Scores are computed on the fly: a result's score sums, per keyword, the
best damped local score among its free witnesses (section II-B).

A level is one bulk pass over all k terms.  A query keeps one eraser
over the ordinals of all its terms (term t's at offset ``base_t``);
per term, the joined numbers' runs (`Column.runs_of`) and their ordinal
spans are taken once, and the k span arrays, stacked, feed one
erased-count call (`check_level`: ELCA and SLCA are masks reduced over
the term axis, witness scores one segment max over the survivors'
spans) and one erase.  Per-level cost stays columnar, matching the
paper's bulk-relational design, and what passes goes straight into the
columns of a `ResultSet`.  The per-candidate formulation of the same
test is the differential reference in ``tests/reference_join.py``.

`JoinBasedSearch._batches` is the one level loop: complete evaluation
runs it to the end with no K, the top-K engines with a K.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..index.columnar import (ColumnarIndex, ColumnarPostings,
                              expand_runs)
from ..obs.tracing import span
from ..planner.plans import JoinPlanner
from ..reliability.deadline import Deadline, check_active, deadline_scope
from ..reliability.errors import DeadlineExceeded
from ..scoring.ranking import RankingModel
from .base import (ELCA, SLCA, ExecutionStats, ResultSet, check_semantics,
                   sort_by_document_order)
from .erasure import make_eraser


class _StreamState:
    """Out-of-band outcome of the level loop: completion flag plus, for
    budgeted runs stopped early under the "partial" policy, the
    guarantee gap.

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


class LevelRun:
    """One query's bottom-up pass with no K (so no bound): the state
    every level reads, the answers `flush` has not taken, and the steps
    of a level: `join_level`, then `finish_level` -- or, in the top-K
    drivers, a rank join over what joined and `erase_level`.  ``engine``
    supplies the index, planner, eraser mode, ranking model and span
    factory.

    The terms' postings, in execution order, share one ordinal space:
    term t's sequence ordinals sit at ``bases[t]``.  The query's one
    eraser spans it, and ``scores`` / ``lengths`` are every term's end
    to end, for the witnesses."""

    def __init__(self, engine, postings: List[ColumnarPostings],
                 terms: Sequence[str], semantics: str,
                 stats: ExecutionStats):
        self.engine = engine
        self.semantics = semantics
        self.stats = stats
        # Term order after shortest-first sorting; remember the mapping
        # so witness scores line up with the caller's term order.
        term_order = {p.term: i for i, p in enumerate(postings)}
        self.caller_slot = [term_order[t] for t in terms]
        self.damping_base = engine.ranking.damping.base
        sizes = [len(p) for p in postings]
        self.bases = np.cumsum([0] + sizes[:-1], dtype=np.int64)
        self.eraser = make_eraser(engine.eraser_mode, sum(sizes))
        self.scores = np.concatenate([p.scores for p in postings])
        self.lengths = np.concatenate([p.lengths for p in postings])
        self.start_level = min(p.max_len for p in postings)
        self.table = engine.index.nodes
        self.nothing = ResultSet.empty(self.table, len(terms))
        # Results pushed and not yet taken, as the (rows, scores,
        # witness) arrays of the chunks they came in.
        self.chunks: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self.top = -float("inf")    # best pending score
        # cross_bound[l-1] bounds every result at levels <= l.
        self.cross_bound = [-float("inf")] * self.start_level

    def below(self, level: int) -> float:
        """Bound on every result of the levels above `level` (numbered
        below it)."""
        return self.cross_bound[level - 2] if level > 1 else -float("inf")

    def pending_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, scores, witness) of the chunks end to end; one at least."""
        if len(self.chunks) == 1:
            return self.chunks[0]
        return tuple(np.concatenate(column) for column in zip(*self.chunks))

    def flush(self, bound: float) -> ResultSet:
        """Remove and return the pending results: all, unsorted."""
        results = ResultSet(self.table, *self.pending_arrays()) \
            if self.chunks else self.nothing
        self.chunks, self.top = [], -float("inf")
        return results

    def push(self, level: int, numbers: np.ndarray,
             witness: Optional[np.ndarray]) -> None:
        """Add results of `level`, at least one.  ``witness[t]`` is per
        execution slot (``None`` when the level ran unscored); rows,
        caller-order witnesses and scores are each one bulk step."""
        rows = self.table.rows_at(level, numbers)
        if witness is None:
            ordered = np.zeros((len(rows), len(self.caller_slot)))
            scores = np.zeros(len(rows))
        else:
            ordered = witness[self.caller_slot].T
            scores = self.engine.ranking.score_results(ordered)
        self.chunks.append((rows, scores, ordered))
        self.top = max(self.top, float(scores.max()))

    def join_level(self, level: int, columns) -> np.ndarray:
        """The level's C-nodes: the numbers every column carries."""
        stats = self.stats
        plan_mark = len(stats.per_level_plan)
        with self.engine.span("join", level=level) as jspan:
            joined = self.engine.planner.intersect_all(
                [c.distinct for c in columns], stats, level)
            jspan.tag(
                plan=[alg for _lvl, alg
                      in stats.per_level_plan[plan_mark:]],
                inputs=[int(c.n_distinct) for c in columns],
                output=int(len(joined)))
        return joined

    def spans(self, columns, runs) -> Tuple[np.ndarray, np.ndarray]:
        """``(lo, hi)``, shape ``(k, J)``: the query-wide ordinal spans
        of the runs ``runs[t]`` (column t's `runs_of` J numbers) -- row
        t is term t's `Column.ordinal_spans` shifted by ``bases[t]``."""
        lo = np.empty((len(columns), len(runs[0])), dtype=np.int64)
        hi = np.empty_like(lo)
        for t, (column, term_runs) in enumerate(zip(columns, runs)):
            lo[t], hi[t] = column.ordinal_spans(term_runs)
        lo += self.bases[:, None]
        hi += self.bases[:, None]
        return lo, hi

    def erase_level(self, level: int, spans) -> None:
        """Erase every joined range -- the `spans` of the level's runs --
        for the levels above, in one call; *after* the level is fully
        checked: same-level candidates never interact (disjoint
        subtrees).  No level lies above level 1, so it marks nothing
        there, but its ranges still count as ``erasures``."""
        lo, hi = spans
        with self.engine.span("erase", level=level) as espan:
            if level > 1:
                self.eraser.mark_many(lo.ravel(), hi.ravel())
            erased = int((hi - lo).sum())
            self.stats.erasures += erased
            espan.tag(erased=erased)

    def finish_level(self, level: int, columns, joined: np.ndarray,
                     with_scores: bool = True) -> int:
        """Check, score and erase the level's C-nodes `joined`; how many
        of them are results.  The runs and their spans are taken once
        and serve both the check and the erase."""
        if len(joined) == 0:
            return 0
        spans = self.spans(columns, [column.runs_of(joined)
                                     for column in columns])
        with self.engine.span("score", level=level) as sspan:
            self.stats.candidates_checked += len(joined)
            alive, witness = check_level(self, level, spans, with_scores)
            if len(alive):
                self.push(level, joined[alive], witness)
            sspan.tag(candidates=int(len(joined)), emitted=int(len(alive)))
        self.erase_level(level, spans)
        return len(alive)


class JoinBasedSearch:
    """Evaluates complete ELCA/SLCA result sets over a `ColumnarIndex`.

    Parameters
    ----------
    index:
        The columnar JDewey index of the document.
    planner:
        Join-algorithm selection policy; defaults to the paper's dynamic
        (context-aware) policy.
    eraser_mode:
        The structure of a query's one eraser: ``bitmap`` (default, a
        dense boolean array over the query's ordinals), ``interval`` --
        the section III-E range-checking structure -- or ``roaring``;
        all compute identical results.
    tracer:
        Optional `repro.obs.Tracer` to open the engine's spans on; by
        default the thread's ambient one (`repro.obs.tracing.span`).
        The engine records O(levels) spans per query (postings fetch,
        then per level: join tagged with the section III-C plan choice
        and cardinalities, scoring, erasure) -- never per-candidate.
    """

    def __init__(self, index: ColumnarIndex,
                 planner: Optional[JoinPlanner] = None,
                 eraser_mode: str = "bitmap",
                 tracer=None):
        self.index = index
        self.planner = planner if planner is not None else JoinPlanner()
        self.eraser_mode = eraser_mode
        self.span = tracer.span if tracer is not None else span
        self.ranking: RankingModel = index.ranking

    def evaluate(self, terms: Sequence[str], semantics: str = ELCA,
                 with_scores: bool = True, observer=None,
                 deadline: Optional[Deadline] = None
                 ) -> Tuple[ResultSet, ExecutionStats]:
        """All results for `terms`, in document order, plus work counters:
        the level loop run to the end with no K.

        ``observer``, if given, is called per processed level as
        ``observer(level, columns, joined, emitted_at_level)`` -- the
        hook behind `repro.algorithms.explain`.

        ``deadline`` (a `repro.reliability.Deadline`) is polled once per
        level -- the cheap boundary of this bottom-up loop -- and by the
        disk index per column decode.  On expiry the ``raise`` policy
        raises `DeadlineExceeded`; the ``partial`` policy stops cleanly
        and returns the results of the levels already processed (a
        subset of the unbounded result set, since same-level candidates
        never interact), with ``stats.partial`` set and the unvisited
        levels counted in ``stats.levels_skipped``.
        """
        check_semantics(semantics)
        stats = ExecutionStats()
        terms = list(terms)
        batches = self._batches(terms, semantics, stats, None,
                                _StreamState(), deadline, with_scores,
                                observer)
        results = ResultSet.concat(self.index.nodes, list(batches),
                                   len(terms))
        stats.results_emitted = len(results)
        return sort_by_document_order(results), stats

    def _batches(self, terms: List[str], semantics: str,
                 stats: ExecutionStats, target_k: Optional[int],
                 state: _StreamState, deadline: Optional[Deadline],
                 with_scores: bool = True, observer=None):
        """The emission order as `ResultSet`s, one per emission attempt
        (empty when the bound let nothing out): what `evaluate` joins up,
        `stream` hands out a view at a time and `search` cuts at k.
        ``deadline`` is polled as `stream` says, and is the thread's scope
        for the column fetch alone -- never across a ``yield``."""
        if not terms:
            state.finished = True
            return
        with self.span("postings_fetch", terms=list(terms)) as pspan:
            postings = self.index.query_postings(terms)
            pspan.tag(list_sizes=[len(p) for p in postings])
        if any(len(p) == 0 for p in postings):
            state.finished = True
            return
        # No K, no bound: a `LevelRun`, every level finished in bulk.
        run = (LevelRun(self, postings, terms, semantics, stats)
               if target_k is None else self.run_class(
                   self, postings, terms, semantics, stats, target_k))
        rank = target_k is not None and self.rank_levels

        def stop_partial(level: int, engine_bound: float) -> None:
            # Unyielded-but-pending results must stay under the gap
            # too; the best pending score caps them.
            state.partial = True
            state.bound = max(engine_bound, run.top)
            stats.partial = True
            stats.levels_skipped += level

        for level in range(run.start_level, 0, -1):
            below = run.below(level)
            try:
                with deadline_scope(deadline):
                    check_active()      # the level boundary
                    columns = [p.column(level) for p in postings]
            except DeadlineExceeded:
                # Expired at the boundary or inside a decode.  Results
                # emitted before the cut are individually valid (the
                # ELCA/SLCA test only reads lower-level erasures).
                if deadline is None or not deadline.partial_ok:
                    raise
                stop_partial(level, run.cross_bound[level - 1])
                return
            if any(len(c) == 0 for c in columns):
                yield run.flush(below)
                continue
            stats.levels_processed += 1
            joined = run.join_level(level, columns)
            if rank and len(joined):
                runs = [c.runs_of(joined) for c in columns]
                tuples_mark = stats.tuples_scanned
                # Emission needs a *fresh* threshold (group partials can
                # push it up), so it is attempted after every block -- a
                # longer block only delays emission, never corrupts it.
                # The rank-join span stays open across `yield`s, so its
                # duration includes consumer time when the stream is
                # driven incrementally.
                with self.span("rank_join", level=level) as jspan:
                    join = run.rank_join(level, joined, runs)
                    while join.pull():
                        yield run.harvest(join, level, columns, joined,
                                          runs, below)
                        if deadline is not None and deadline.expired():
                            if not deadline.partial_ok:
                                deadline.raise_expired()
                            stop_partial(level, max(join.threshold(), below))
                            return
                    jspan.tag(tuples=stats.tuples_scanned - tuples_mark,
                              **join.progress())
                # Level drained: every C-node (erased occurrences
                # included) erases its range for the levels above.
                run.erase_level(level, run.spans(columns, runs))
            else:
                emitted = run.finish_level(level, columns, joined,
                                           with_scores)
                if observer is not None:
                    observer(level, columns, joined, emitted)
            if level == 1:
                # Only emission remains: anything yielded from here on
                # does not count as early termination.
                state.finished = True
            yield run.flush(below)
        # All levels done: everything pending is final, in score order.
        state.finished = True
        yield run.flush(-float("inf"))


def check_level(run: LevelRun, level: int, spans, with_scores: bool = True
                ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """The ELCA/SLCA test over J joined numbers of a level, in bulk,
    against the run's eraser and under its semantics.

    ``spans`` is ``run.spans`` of their runs, shape ``(k, J)``.  Returns
    the positions that pass and, with scores, ``witness[t, i]``: the
    best damped free occurrence of term t under the i-th survivor.
    Bit-identical to checking one candidate at a time (the reference in
    ``tests/reference_join.py``), but every step is one bulk call over
    all k terms: erased counts per span from the eraser's
    prefix/binary-search API, reshaped so ELCA/SLCA are masks reduced
    over the term axis; free witnesses from one mask; per-span best
    damped scores from one segment max (`np.maximum.reduceat`) over the
    survivors' spans end to end.
    """
    lo, hi = spans
    erased = run.eraser.erased_counts(lo.ravel(), hi.ravel()) \
        .reshape(lo.shape)
    if run.semantics == SLCA:
        alive = (erased == 0).all(axis=0)
    else:
        alive = (erased < hi - lo).all(axis=0)
    alive_idx = np.flatnonzero(alive)
    if len(alive_idx) == 0 or not with_scores:
        return alive_idx, None
    lo, hi = lo[:, alive_idx], hi[:, alive_idx]
    # A run's sequences are consecutive ordinals (`Column.ordinal_spans`),
    # so a span *is* its run's sequences, and every ordinal read lies in
    # the [0, N) the count above validated.
    ordinals, offsets = expand_runs(lo.ravel(), (hi - lo).ravel())
    damped = (run.scores[ordinals]
              * run.damping_base ** (run.lengths[ordinals] - level))
    free = run.eraser.free_mask(ordinals)
    witness = np.maximum.reduceat(np.where(free, damped, -np.inf), offsets)
    return alive_idx, witness.reshape(lo.shape)


def search(index: ColumnarIndex, terms: Sequence[str],
           semantics: str = ELCA, planner: Optional[JoinPlanner] = None,
           eraser_mode: str = "bitmap") -> ResultSet:
    """One-shot convenience wrapper around `JoinBasedSearch.evaluate`."""
    engine = JoinBasedSearch(index, planner, eraser_mode)
    results, _stats = engine.evaluate(terms, semantics)
    return results
