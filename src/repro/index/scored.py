"""Score-ordered view of a columnar inverted list (paper section IV-C).

Damping makes "order by damped score at level l" look level-dependent,
and the paper's fix is to group the JDewey sequences by length and merge
the group heads online.  That is only needed for a damping function that
is not exponential.  `DampingFunction` here is ``base ** delta`` and
nothing else, so ``score * base ** length`` orders a term's occurrences
the same way at every level: `ScoredPostings` keeps *one* descending
order per term as each occurrence's rank in it, and a level's ranked
input is the occurrences of the runs asked for -- the top-K driver asks
for those of the level's join -- sorted by that rank: work in the rows
served, not in the length of the list.

Both are cached on the postings object on first use: the per-level
list-head bounds ``max_damped(l)`` (all the cross-level bound reads) and
the rank order, an argsort of the whole list that only a ranked level
reads -- a query whose levels are all finished in bulk never sorts it.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .columnar import ColumnarPostings, expand_runs


def _level_maxima(postings: ColumnarPostings, base: float) -> np.ndarray:
    """``max_damped(l)`` for l = 1..max_len: the best score per length,
    damped to l, maximised over the lengths reaching l."""
    lengths = np.unique(postings.lengths)
    best = np.full(len(lengths), -np.inf)
    np.maximum.at(best, np.searchsorted(lengths, postings.lengths),
                  postings.scores)
    levels = np.arange(1, postings.max_len + 1)[:, None]
    damped = best * base ** np.maximum(lengths - levels, 0)
    return np.maximum(np.where(lengths >= levels, damped, -np.inf)
                      .max(axis=1), 0.0)


class ScoredPostings:
    """One term's occurrences in descending damped-score order."""

    def __init__(self, postings: ColumnarPostings, damping_base: float):
        if not 0.0 < damping_base <= 1.0:
            raise ValueError("damping base must be in (0, 1]")
        self.postings = postings
        self.damping_base = damping_base
        self.max_len = postings.max_len
        cached = postings._level_maxima
        if cached is None or cached[0] != damping_base:
            cached = postings._level_maxima = (
                damping_base, _level_maxima(postings, damping_base))
        #: ``level_max[l-1]`` is `max_damped(l)`.
        self.level_max = cached[1]

    def __len__(self) -> int:
        return len(self.postings)

    @property
    def rank(self) -> np.ndarray:
        """Each occurrence's position in the descending order of
        ``score * base ** length``, sorted on first use."""
        postings, base = self.postings, self.damping_base
        cached = postings._score_order
        if cached is None or cached[0] != base:
            with np.errstate(under="ignore"):
                key = postings.scores * base ** postings.lengths
            rank = np.empty(len(key), dtype=np.int64)
            rank[np.argsort(-key, kind="stable")] = np.arange(len(key))
            cached = postings._score_order = (base, rank)
        return cached[1]

    def damp(self, raw_score, length, level: int):
        return raw_score * self.damping_base ** (length - level)

    def max_damped(self, level: int) -> float:
        """Upper bound s_m(level): best possible damped score in the
        column, erased occurrences included (the paper's list-head
        scores, one candidate per sequence length)."""
        return float(self.level_max[level - 1]) if level <= self.max_len \
            else 0.0

    def ranked(self, level: int, eraser=None, runs=None, base: int = 0
               ) -> Tuple[np.ndarray, np.ndarray]:
        """Column `level` as a ranked input: ``(run, score)`` of its
        occurrences, best damped score first.

        ``runs`` is run positions as `Column.runs_of` returns them: only
        those runs are served, and ``run`` indexes them.  Default: every
        run of the column (``run`` indexes ``column.distinct``).

        ``eraser`` filters out erased sequences (consumed by deeper
        ELCAs) so they never become witnesses; it may be a query's
        eraser over several terms, in which this term's ordinals start
        at ``base``.  The scores are checked
        non-increasing *as computed*: rounding can invert two
        occurrences of different lengths by an ulp, and the join's
        ``s^i`` is only a bound if the array really descends.
        """
        postings = self.postings
        column = postings.column(level)
        if runs is None:
            runs = np.arange(column.n_distinct)
        lows, highs = column.ordinal_spans(runs)
        counts = highs - lows
        ordinals, _offsets = expand_runs(lows, counts)
        run = np.repeat(np.arange(len(runs)), counts)
        if eraser is not None:
            free = eraser.free_mask(ordinals + base)
            run, ordinals = run[free], ordinals[free]
        by_rank = np.argsort(self.rank[ordinals])
        run, ordinals = run[by_rank], ordinals[by_rank]
        scores = self.damp(postings.scores[ordinals],
                           postings.lengths[ordinals], level)
        if np.any(scores[1:] > scores[:-1]):
            resort = np.argsort(-scores, kind="stable")
            run, scores = run[resort], scores[resort]
        return run, scores
