"""Top-K star join (paper section IV-B) and the classic rank-join bound.

The operator consumes k ranked inputs (score-descending ``(ids, scores)``
arrays) joined on id -- the star pattern ``R1.id = R2.id = ... = Rk.id``.
An id seen in all k inputs becomes a *completed* result whose score
folds the per-input scores (first occurrence per input wins, which is
the max because inputs descend).

It runs block-at-a-time: a pull takes a slice of one input, and the join
state lives in dense arrays over the universe of ids (`seen` bit masks,
`partial` aggregates, `witness[k, U]` per-input scores), so a block costs
a fixed number of array operations and no per-tuple Python.  Inputs are
held as positions in the universe: a driver that knows which ids can
complete (the top-K keyword search joins the level's columns first)
passes that universe and ranks positions in it; given bare ids, the
operator collects the distinct ones and places each input once.

Two thresholds for results not yet completed:

* ``classic`` -- the HRJN/TA bound: ``max_i (s^i + sum_{j != i} s_m^j)``
  with ``s^i`` the next unseen score of input i and ``s_m^j`` the very
  first (maximum) score of input j.
* ``group``   -- the paper's tighter star-join bound: pending ids are
  grouped by the subset P of inputs that have seen them;
  ``max(sum_i s^i, max_P (ms(G_P) + sum_{j not in P} s^j))`` where
  ``ms(G_P)`` is the best current partial in the group, recomputed
  exactly from the pending ids.  The first term covers ids never seen
  anywhere; the paper proves the group term dominates it whenever a
  group is live, but keeping it makes the empty case explicit.

Exhausted inputs drop out of the bound naturally: an id that has not
been seen in an exhausted input can never complete, so its partial is
dead and case 1 is impossible.

The cursor policy follows the paper at block granularity: round-robin
until K results have been *generated*, then always advance the input
with the largest next score ``s^i``.  Both bounds are evaluated at block
boundaries, where they are exact; the price is over-reading at most one
block per input.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .base import ExecutionStats

CLASSIC = "classic"
GROUP = "group"
BOUND_MODES = (CLASSIC, GROUP)

#: Tuples per pull: an input's first pull reads `BLOCK_START` (the
#: emission cadence of the tuple-at-a-time join this replaced), every
#: later one twice the one before, up to `BLOCK_CAP` -- so an input is
#: over-read by less than what it had to read anyway, plus one block.
BLOCK_START = 16
BLOCK_CAP = 4096


class BoundOps:
    """Per-slot aggregation implementing a monotone combining function.

    The star join's state and thresholds only need three operations on
    F: fold one more per-input score into a partial aggregate, finish a
    full per-slot vector, and bound a partial given the next unseen
    score of every missing input.  ``sum`` (the paper's exposition),
    per-slot ``weighted`` sums, and ``max`` are provided; any F whose
    partials are totally ordered and monotone fits the same interface.
    Scores may be floats or arrays of them.
    """

    identity = 0.0

    def __init__(self, mode: str = "sum",
                 weights: Optional[Sequence[float]] = None):
        if mode not in ("sum", "weighted", "max"):
            raise ValueError(f"unsupported combiner mode {mode!r}")
        if mode == "weighted" and weights is None:
            raise ValueError("weighted mode needs per-slot weights")
        self.mode = mode
        self.weights = tuple(weights) if weights is not None else None

    def fold(self, partial, score, slot: int):
        """Aggregate one more input's score into a partial result."""
        if self.mode == "weighted":
            score = self.weights[slot] * score
        if self.mode == "max":
            return np.maximum(partial, score)
        return partial + score

    def complete(self, scores):
        """F over a full per-slot score vector, folded in slot order."""
        partial = self.identity
        for slot, score in enumerate(scores):
            partial = self.fold(partial, score, slot)
        return partial

    def bound(self, partial: float, nexts: Sequence[Optional[float]],
              unseen_slots: Sequence[int]) -> float:
        """Best total a partial can still reach; -inf if it never
        completes (an unseen input is exhausted)."""
        for slot in unseen_slots:
            s_next = nexts[slot]
            if s_next is None:
                return -math.inf
            partial = self.fold(partial, s_next, slot)
        return partial


class BlockStarJoin:
    """Incremental star rank-join over k ranked inputs, a block at a time.

    Drive it with `pull()` (one block from one input); collect generated
    results with `take_completed()` and read `threshold()` for the bound
    on everything not yet generated.  A driver (e.g. the top-K keyword
    algorithm) combines the threshold with its own cross-level bounds
    before emitting.  With ``universe`` the inputs' ids are positions in
    it and completions come back as positions; without, ids are values:
    their sorted union is the universe and completions are values too.
    """

    def __init__(self, inputs: Sequence[Tuple[np.ndarray, np.ndarray]],
                 target_k: int, bound_mode: str = GROUP,
                 stats: Optional[ExecutionStats] = None,
                 ops: Optional[BoundOps] = None,
                 universe: Optional[np.ndarray] = None):
        if bound_mode not in BOUND_MODES:
            raise ValueError(
                f"unknown bound mode {bound_mode!r}; one of {BOUND_MODES}")
        if not 0 < len(inputs) < 63:
            raise ValueError("need between 1 and 62 ranked inputs")
        self._ids = [np.asarray(ids, dtype=np.int64) for ids, _ in inputs]
        self._scores = [np.asarray(scores, dtype=np.float64)
                        for _, scores in inputs]
        if any(np.any(s[1:] > s[:-1]) for s in self._scores):
            raise ValueError("ranked input must be sorted score-descending")
        self.k = len(inputs)
        self.target_k = target_k
        self.bound_mode = bound_mode
        self.ops = ops if ops is not None else BoundOps()
        self.stats = stats if stats is not None else ExecutionStats()
        self._values = None     # position -> id, when placed here
        if universe is None:
            universe = self._values = np.unique(np.concatenate(self._ids))
            self._ids = [np.searchsorted(universe, ids) for ids in self._ids]
        self._full = (1 << self.k) - 1
        self._seen = np.zeros(len(universe), dtype=np.int64)
        self._partial = np.full(len(universe), self.ops.identity)
        self._witness = np.zeros((self.k, len(universe)))
        # Ids seen somewhere but not everywhere, as chunks of positions
        # in the universe; completed ones are dropped (and the chunks
        # merged) when the groups are read.
        self._pending: List[np.ndarray] = []
        self._pos = [0] * self.k
        self._block = [BLOCK_START] * self.k
        # s^i: the score each input serves next, None once it is dry;
        # s_m^i is where it started.
        self._nexts: List[Optional[float]] = [
            float(scores[0]) if len(scores) else None
            for scores in self._scores]
        self._max_scores = list(self._nexts)
        self._round_robin = 0
        self._done: List[Tuple[np.ndarray, np.ndarray]] = []
        self.completed = 0
        self.tuples_retrieved = 0

    # ------------------------------------------------------------------
    # pulling
    # ------------------------------------------------------------------

    def _choose_input(self) -> Optional[int]:
        nexts = self._nexts
        alive = [i for i, s in enumerate(nexts) if s is not None]
        if not alive:
            return None
        if self.completed < self.target_k:
            while True:
                i = self._round_robin
                self._round_robin = (i + 1) % self.k
                if nexts[i] is not None:
                    return i
        return max(alive, key=nexts.__getitem__)

    def pull(self) -> bool:
        """Retrieve one block; False when every input is exhausted."""
        i = self._choose_input()
        if i is None:
            return False
        ranked = self._scores[i]
        start = self._pos[i]
        stop = self._pos[i] = min(start + self._block[i], len(ranked))
        self._block[i] = min(2 * self._block[i], BLOCK_CAP)
        self._nexts[i] = float(ranked[stop]) if stop < len(ranked) else None
        self.tuples_retrieved += stop - start
        self.stats.tuples_scanned += stop - start
        # Set semantics: of an id's occurrences in one input only the
        # first (max) counts -- `np.unique` keeps it within the block,
        # the bit test drops ids this input (or a completion) has seen.
        idx, first = np.unique(self._ids[i][start:stop], return_index=True)
        bit = 1 << i
        fresh = (self._seen[idx] & bit) == 0
        idx, scores = idx[fresh], ranked[start:stop][first[fresh]]
        seen = self._seen[idx] | bit
        self._seen[idx] = seen
        self._witness[i, idx] = scores
        self._partial[idx] = self.ops.fold(self._partial[idx], scores, i)
        done = idx[seen == self._full]
        if len(done):
            self.completed += len(done)
            self._done.append((
                done if self._values is None else self._values[done],
                self._witness[:, done]))
        if self.k > 1:
            self._pending.append(idx[seen == bit])
        return True

    def take_completed(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(ids, witness[k, n])`` of the results completed since the
        last call: per id, the score each input first showed it with."""
        done, self._done = self._done, []
        if not done:
            return np.empty(0, dtype=np.int64), np.empty((self.k, 0))
        return (np.concatenate([ids for ids, _ in done]),
                np.concatenate([w for _, w in done], axis=1))

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def _groups(self) -> Dict[int, float]:
        """``ms(G_P)`` per live seen-mask P, exact over the pending ids."""
        if not self._pending:
            return {}
        pending = np.concatenate(self._pending)
        masks = self._seen[pending]
        live = masks != self._full
        pending, masks = pending[live], masks[live]
        self._pending = [pending]
        if self.k <= 16:
            # Few enough masks to index a table by them: no sort.
            groups, member = np.arange(self._full), masks
        else:
            groups, member = np.unique(masks, return_inverse=True)
        best = np.full(len(groups), -np.inf)
        np.maximum.at(best, member, self._partial[pending])
        live = best > -np.inf
        return dict(zip(groups[live].tolist(), best[live].tolist()))

    def progress(self) -> Dict[str, int]:
        """A cheap snapshot of the join state, for span tags and logs:
        tuples retrieved, completions, partially joined ids still
        pending and live seen-mask groups (the §IV-B bound's
        granularity)."""
        groups = self._groups()
        return {
            "tuples_retrieved": self.tuples_retrieved,
            "completed": self.completed,
            "pending": sum(len(chunk) for chunk in self._pending),
            "groups": len(groups),
        }

    # ------------------------------------------------------------------
    # thresholds
    # ------------------------------------------------------------------

    def unseen_bound(self) -> float:
        """Bound on ids no input has shown yet: ``F(s^1 .. s^k)``.  Both
        thresholds are at least this, so a driver whose best candidate
        is below it can skip `threshold()`."""
        return self.ops.bound(self.ops.identity, self._nexts, range(self.k))

    def threshold(self) -> float:
        """Upper bound on the score of any result not yet completed."""
        self.stats.threshold_checks += 1
        if self.bound_mode == CLASSIC:
            return self._classic_threshold()
        return self._group_threshold()

    def _classic_threshold(self) -> float:
        best = -math.inf
        if None not in self._max_scores:
            for i, s_next in enumerate(self._nexts):
                if s_next is not None:
                    vector = list(self._max_scores)
                    vector[i] = s_next
                    best = max(best, self.ops.complete(vector))
        # Partial results are not tracked separately by HRJN; ids already
        # seen somewhere are covered because s_m^j >= their seen scores
        # -- until an input dries up and its term leaves the maximum.
        if None in self._nexts:
            best = max(best, self._group_threshold())
        return best

    def _group_threshold(self) -> float:
        best = self.unseen_bound()  # case 1: ids unseen everywhere
        for mask, partial_best in self._groups().items():
            unseen = [j for j in range(self.k) if not mask & (1 << j)]
            best = max(best, self.ops.bound(partial_best, self._nexts,
                                            unseen))
        return best
