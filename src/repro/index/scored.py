"""Score-ordered view of a columnar inverted list (paper section IV-C).

Damping makes "order by damped score at level l" look level-dependent,
and the paper's fix is to group the JDewey sequences by length and merge
the group heads online.  That is only needed for a damping function that
is not exponential.  `DampingFunction` here is ``base ** delta`` and
nothing else, so ``score * base ** length`` orders a term's occurrences
the same way at every level: `ScoredPostings` keeps *one* descending
order per term (built once per postings object, reused by every level
and every later query) as each occurrence's rank in it, and a level's
ranked input is the occurrences of the runs asked for -- the top-K
driver asks for those of the level's join -- sorted by that rank: work
in the rows served, not in the length of the list.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .columnar import ColumnarPostings, expand_runs


def _build_order(postings: ColumnarPostings, base: float):
    """(rank per occurrence, distinct lengths, best score per length)."""
    with np.errstate(under="ignore"):
        key = postings.scores * base ** postings.lengths
    rank = np.empty(len(key), dtype=np.int64)
    rank[np.argsort(-key, kind="stable")] = np.arange(len(key))
    lengths = np.unique(postings.lengths)
    best = np.full(len(lengths), -np.inf)
    np.maximum.at(best, np.searchsorted(lengths, postings.lengths),
                  postings.scores)
    return rank, lengths, best


class ScoredPostings:
    """One term's occurrences in descending damped-score order."""

    def __init__(self, postings: ColumnarPostings, damping_base: float):
        if not 0.0 < damping_base <= 1.0:
            raise ValueError("damping base must be in (0, 1]")
        self.postings = postings
        self.damping_base = damping_base
        self.max_len = postings.max_len
        cached = postings._score_order
        if cached is None or cached[0] != damping_base:
            cached = (damping_base,) + _build_order(postings, damping_base)
            postings._score_order = cached
        _base, self.rank, self._lengths, self._best = cached

    def __len__(self) -> int:
        return len(self.postings)

    def damp(self, raw_score, length, level: int):
        return raw_score * self.damping_base ** (length - level)

    def max_damped(self, level: int) -> float:
        """Upper bound s_m(level): best possible damped score in the
        column, erased occurrences included (the paper's list-head
        scores, one candidate per sequence length)."""
        deep = self._lengths >= level
        if not deep.any():
            return 0.0
        return max(0.0, float(self.damp(self._best[deep],
                                        self._lengths[deep], level).max()))

    def ranked(self, level: int, eraser=None, runs=None
               ) -> Tuple[np.ndarray, np.ndarray]:
        """Column `level` as a ranked input: ``(run, score)`` of its
        occurrences, best damped score first.

        ``runs`` is ``(lows, highs)`` as `Column.runs_of` returns them:
        only those runs are served, and ``run`` indexes them.  Default:
        every run of the column (``run`` indexes ``column.distinct``).

        ``eraser`` filters out erased sequences (consumed by deeper
        ELCAs) so they never become witnesses.  The scores are checked
        non-increasing *as computed*: rounding can invert two
        occurrences of different lengths by an ulp, and the join's
        ``s^i`` is only a bound if the array really descends.
        """
        postings = self.postings
        column = postings.column(level)
        if runs is None:
            runs = column.run_starts[:-1], column.run_starts[1:]
        lows, highs = runs
        counts = highs - lows
        rows, _offsets = expand_runs(lows, counts)
        run = np.repeat(np.arange(len(lows)), counts)
        ordinals = column.seq_idx[rows]
        if eraser is not None:
            free = eraser.free_mask(ordinals)
            run, ordinals = run[free], ordinals[free]
        by_rank = np.argsort(self.rank[ordinals])
        run, ordinals = run[by_rank], ordinals[by_rank]
        scores = self.damp(postings.scores[ordinals],
                           postings.lengths[ordinals], level)
        if np.any(scores[1:] > scores[:-1]):
            resort = np.argsort(-scores, kind="stable")
            run, scores = run[resort], scores[resort]
        return run, scores
