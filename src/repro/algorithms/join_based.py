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

A level is checked in bulk (`check_level`): run bounds via
`Column.runs_of`, erased counts / free masks from the erasure
structures, an `np.maximum.reduceat` segment-max for witness scores --
per-level cost stays columnar, matching the paper's bulk-relational
design -- and what passes goes straight into the columns of a
`ResultSet`.  The per-candidate formulation of the same test is the
differential reference in ``tests/reference_join.py``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..index.columnar import (ColumnarIndex, ColumnarPostings,
                              expand_runs)
from ..obs.tracing import span
from ..planner.plans import JoinPlanner
from ..reliability.deadline import Deadline
from ..reliability.errors import DeadlineExceeded
from ..scoring.ranking import RankingModel
from .base import (ELCA, SLCA, ExecutionStats, ResultSet, check_semantics,
                   sort_by_document_order)
from .erasure import erase_runs, make_eraser


class LevelRun:
    """One query's bottom-up pass: the per-term state every level reads
    (postings in execution order, their erasers), the answers found so
    far (`pending()`, one `ResultSet`), and the steps of a level:
    `join_level`, then `finish_level` -- or, in the top-K drivers, a
    rank join over what joined and `erase_level`.
    ``engine`` supplies the index, planner, eraser mode, ranking model
    and span factory."""

    def __init__(self, engine, postings: List[ColumnarPostings],
                 terms: Sequence[str], semantics: str,
                 stats: ExecutionStats):
        self.engine = engine
        self.postings = postings
        self.semantics = semantics
        self.stats = stats
        # Term order after shortest-first sorting; remember the mapping
        # so witness scores line up with the caller's term order.
        term_order = {p.term: i for i, p in enumerate(postings)}
        self.caller_slot = [term_order[t] for t in terms]
        self.damping_base = engine.ranking.damping.base
        self.erasers = [make_eraser(engine.eraser_mode, len(p))
                        for p in postings]
        self.start_level = min(p.max_len for p in postings)
        self.table = engine.index.nodes
        self.nothing = ResultSet.empty(self.table, len(terms))
        # Results pushed and not yet taken, as the chunks they came in.
        self.chunks: List[ResultSet] = []
        self.top = -float("inf")    # best pending score

    def pending(self) -> ResultSet:
        """The chunks, merged into one `ResultSet` (and kept so)."""
        self.chunks = [ResultSet.concat(self.table, self.chunks,
                                        len(self.caller_slot))]
        return self.chunks[0]

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
        self.chunks.append(ResultSet(self.table, rows, scores, ordered))
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

    def erase_level(self, level: int, columns, run_bounds) -> None:
        """Erase every joined range for the levels above -- *after* the
        level is fully checked: same-level candidates never interact
        (disjoint subtrees)."""
        with self.engine.span("erase", level=level) as espan:
            erased = erase_runs(columns, run_bounds, self.erasers)
            self.stats.erasures += erased
            espan.tag(erased=erased)

    def finish_level(self, level: int, columns, joined: np.ndarray,
                     with_scores: bool = True) -> int:
        """Check, score and erase the level's C-nodes `joined`; how many
        of them are results."""
        if len(joined) == 0:
            return 0
        # Run boundaries of every joined value in every column, in bulk.
        run_bounds = [column.runs_of(joined) for column in columns]
        with self.engine.span("score", level=level) as sspan:
            self.stats.candidates_checked += len(joined)
            alive, witness = check_level(
                level, self.postings, columns, run_bounds, self.erasers,
                self.semantics, self.damping_base, with_scores)
            if len(alive):
                self.push(level, joined[alive], witness)
            sspan.tag(candidates=int(len(joined)), emitted=int(len(alive)))
        self.erase_level(level, columns, run_bounds)
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
        ``bitmap`` (default, a dense boolean array per list),
        ``interval`` -- the section III-E range-checking structure --
        or ``roaring``; all compute identical results.
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
        """All results for `terms`, in document order, plus work counters.

        ``observer``, if given, is called per processed level as
        ``observer(level, columns, joined, emitted_at_level)`` -- the
        hook behind `repro.algorithms.explain`.

        ``deadline`` (a `repro.reliability.Deadline`) is polled once per
        level -- the cheap boundary of this bottom-up loop.  On expiry
        the ``raise`` policy raises `DeadlineExceeded`; the ``partial``
        policy stops cleanly and returns the results of the levels
        already processed (a subset of the unbounded result set, since
        same-level candidates never interact), with ``stats.partial``
        set and the unvisited levels counted in ``stats.levels_skipped``.
        """
        check_semantics(semantics)
        stats = ExecutionStats()
        terms = list(terms)
        nothing = ResultSet.empty(self.index.nodes, len(terms))
        if not terms:
            return nothing, stats
        with self.span("postings_fetch", terms=list(terms)) as pspan:
            postings = self.index.query_postings(terms)
            pspan.tag(list_sizes=[len(p) for p in postings])
        if any(len(p) == 0 for p in postings):
            return nothing, stats
        run = LevelRun(self, postings, terms, semantics, stats)

        for level in range(run.start_level, 0, -1):
            if deadline is not None and deadline.expired():
                if not deadline.partial_ok:
                    deadline.raise_expired()
                stats.partial = True
                stats.levels_skipped += level
                break
            try:
                columns = [p.column(level) for p in postings]
                if any(len(c) == 0 for c in columns):
                    continue
                stats.levels_processed += 1
                joined = run.join_level(level, columns)
                emitted = run.finish_level(level, columns, joined,
                                           with_scores)
                if observer is not None:
                    observer(level, columns, joined, emitted)
            except DeadlineExceeded:
                # Raised mid-level by a disk column fetch polling the
                # thread-local deadline; downgrade per policy.  Results
                # emitted before the cut are individually valid (the
                # ELCA/SLCA test only reads lower-level erasures), so
                # keeping them preserves the subset guarantee.
                if deadline is None or not deadline.partial_ok:
                    raise
                stats.partial = True
                stats.levels_skipped += level
                break
        results = run.pending()
        stats.results_emitted = len(results)
        return sort_by_document_order(results), stats


def check_level(level: int, postings: List[ColumnarPostings], columns,
                run_bounds, erasers, semantics: str, damping_base: float,
                with_scores: bool = True
                ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """The ELCA/SLCA test over every joined number of a level, in bulk.

    ``run_bounds[t]`` is column t's `runs_of` the joined numbers.
    Returns the positions that pass and, with scores, ``witness[t, i]``:
    the best damped free occurrence of term t under the i-th survivor.
    Bit-identical to checking one candidate at a time (the reference
    in ``tests/reference_join.py``), but every step is a bulk array
    operation: erased counts per run come
    from the eraser's prefix/binary-search bulk API, free witnesses from
    a bulk mask, and per-run best damped scores from a segment max
    (`np.maximum.reduceat`) over the concatenated run ordinals.
    """
    alive = np.ones(len(run_bounds[0][0]), dtype=bool)
    for t, column in enumerate(columns):
        lows, highs = run_bounds[t]
        lo_ords, hi_ords = column.ordinal_spans(lows, highs)
        erased = erasers[t].erased_counts(lo_ords, hi_ords)
        if semantics == SLCA:
            alive &= erased == 0
        else:
            alive &= erased < highs - lows
    alive_idx = np.nonzero(alive)[0]
    if len(alive_idx) == 0 or not with_scores:
        return alive_idx, None
    witness = np.empty((len(columns), len(alive_idx)), dtype=np.float64)
    for t, column in enumerate(columns):
        lows, highs = run_bounds[t]
        # The rows of every surviving run, end to end.
        flat, offsets = expand_runs(lows[alive_idx],
                                    (highs - lows)[alive_idx])
        ordinals = column.seq_idx[flat]
        p = postings[t]
        damped = (p.scores[ordinals]
                  * damping_base ** (p.lengths[ordinals] - level))
        free = erasers[t].free_mask(ordinals)
        witness[t] = np.maximum.reduceat(
            np.where(free, damped, -np.inf), offsets)
    return alive_idx, witness


def search(index: ColumnarIndex, terms: Sequence[str],
           semantics: str = ELCA, planner: Optional[JoinPlanner] = None,
           eraser_mode: str = "bitmap") -> ResultSet:
    """One-shot convenience wrapper around `JoinBasedSearch.evaluate`."""
    engine = JoinBasedSearch(index, planner, eraser_mode)
    results, _stats = engine.evaluate(terms, semantics)
    return results
