"""The tuple-at-a-time top-K machinery, kept as the tests' reference.

`repro.algorithms.topk_join.BlockStarJoin` and the single per-term score
order of `repro.index.scored` replaced all of this in `src/`: the
length-grouped score lists with their heap-merging `ColumnCursor`
(paper section IV-C as written; needed only for a damping function that
is not exponential), the per-tuple `TopKStarJoin` with its hash bucket,
`topk_join()` and the driver that stepped them (`PerTupleTopKSearch`,
the former body of `TopKKeywordSearch.stream` without its tracing and
deadline polls).  They stay here unchanged in behaviour, so the
differential tests (`tests/test_topk_block.py`) and the bound ablation
have an independent account of what the block engine must return and of
how many tuples the paper's own cadence reads.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.algorithms.base import (ELCA, SLCA, ExecutionStats, ResultSet,
                                   SearchResult, TopKResult, check_semantics)
from repro.algorithms.erasure import make_eraser
from repro.algorithms.topk_join import BOUND_MODES, CLASSIC, GROUP, BoundOps
from repro.algorithms.topk_keyword import TopKKeywordSearch, _StreamState
from repro.index.columnar import ColumnarPostings


# ---------------------------------------------------------------------------
# the per-tuple star join (formerly repro.algorithms.topk_join)
# ---------------------------------------------------------------------------

class ListInput:
    """A ranked input (`peek_score` / `pop`) over a pre-sorted list."""

    def __init__(self, tuples: Sequence[Tuple[int, float]]):
        scores = [s for _, s in tuples]
        if any(a < b for a, b in zip(scores, scores[1:])):
            raise ValueError("ranked input must be sorted score-descending")
        self._tuples = list(tuples)
        self._pos = 0

    def peek_score(self) -> Optional[float]:
        if self._pos >= len(self._tuples):
            return None
        return self._tuples[self._pos][1]

    def pop(self) -> Optional[Tuple[int, float]]:
        if self._pos >= len(self._tuples):
            return None
        tup = self._tuples[self._pos]
        self._pos += 1
        return tup


class _BucketEntry:
    """Partial join state of one id."""

    __slots__ = ("key", "seen_mask", "partial_sum", "scores")

    def __init__(self, key: int, k: int):
        self.key = key
        self.seen_mask = 0
        self.partial_sum = 0.0
        self.scores = [0.0] * k


class CompletedResult:
    """An id matched in all k inputs, with its per-input scores."""

    __slots__ = ("key", "score", "scores")

    def __init__(self, key: int, score: float, scores: List[float]):
        self.key = key
        self.score = score
        self.scores = scores

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Completed {self.key} score={self.score:.3f}>"


class TopKStarJoin:
    """Incremental star rank-join over k ranked inputs.

    Drive it with `step()` (one tuple retrieval); read `completed` for
    generated results and `threshold()` for the bound on everything not
    yet generated.  A driver (e.g. the top-K keyword algorithm) combines
    the threshold with its own cross-level bounds before emitting.
    """

    def __init__(self, inputs: Sequence, target_k: int,
                 bound_mode: str = GROUP,
                 stats: Optional[ExecutionStats] = None,
                 ops: Optional[BoundOps] = None):
        if bound_mode not in BOUND_MODES:
            raise ValueError(
                f"unknown bound mode {bound_mode!r}; one of {BOUND_MODES}")
        if not inputs:
            raise ValueError("need at least one ranked input")
        self.inputs = list(inputs)
        self.k = len(inputs)
        self.target_k = target_k
        self.bound_mode = bound_mode
        self.ops = ops if ops is not None else BoundOps()
        self.stats = stats if stats is not None else ExecutionStats()
        self._bucket: Dict[int, _BucketEntry] = {}
        # Group index: seen_mask -> (best partial sum, member count).  The
        # best is a monotone cache: when its witness leaves the group the
        # value may be stale-high, which keeps the bound sound; it is
        # dropped as soon as the group empties.
        self._group_best: Dict[int, float] = {}
        self._group_count: Dict[int, int] = {}
        self._max_scores = [inp.peek_score() for inp in inputs]
        self._round_robin = 0
        self.completed: List[CompletedResult] = []
        self._completed_keys: set = set()
        self.tuples_retrieved = 0

    # ------------------------------------------------------------------
    # stepping
    # ------------------------------------------------------------------

    def _choose_input(self) -> Optional[int]:
        alive = [i for i, inp in enumerate(self.inputs)
                 if inp.peek_score() is not None]
        if not alive:
            return None
        if len(self.completed) < self.target_k:
            for _ in range(self.k):
                i = self._round_robin
                self._round_robin = (self._round_robin + 1) % self.k
                if i in alive:
                    return i
            return alive[0]
        return max(alive, key=lambda i: self.inputs[i].peek_score())

    def step(self) -> bool:
        """Retrieve one tuple; False when every input is exhausted."""
        i = self._choose_input()
        if i is None:
            return False
        tup = self.inputs[i].pop()
        if tup is None:
            return True
        key, score = tup
        self.tuples_retrieved += 1
        self.stats.tuples_scanned += 1
        if key in self._completed_keys:
            # Later (lower-scored) occurrences of a finished id: the join
            # has set semantics, the first completion already holds every
            # input's maximum.
            return True
        entry = self._bucket.get(key)
        if entry is None:
            entry = _BucketEntry(key, self.k)
            self._bucket[key] = entry
        bit = 1 << i
        if entry.seen_mask & bit:
            # A lower-scored duplicate from the same input: set semantics,
            # the first (max) occurrence already counted.
            return True
        old_mask = entry.seen_mask
        entry.seen_mask |= bit
        entry.scores[i] = score
        entry.partial_sum = self.ops.fold(entry.partial_sum, score, i)
        if entry.seen_mask == (1 << self.k) - 1:
            del self._bucket[key]
            self._completed_keys.add(key)
            self.completed.append(
                CompletedResult(key, entry.partial_sum, entry.scores))
            self._forget_group(old_mask)
        else:
            self._update_group(old_mask, entry)
        return True

    def _update_group(self, old_mask: int, entry: _BucketEntry) -> None:
        if old_mask:
            self._forget_group(old_mask)
        mask = entry.seen_mask
        self._group_count[mask] = self._group_count.get(mask, 0) + 1
        current = self._group_best.get(mask, -math.inf)
        if entry.partial_sum > current:
            self._group_best[mask] = entry.partial_sum

    def _forget_group(self, mask: int) -> None:
        if not mask:
            return
        remaining = self._group_count.get(mask, 0) - 1
        if remaining <= 0:
            self._group_count.pop(mask, None)
            self._group_best.pop(mask, None)
        else:
            self._group_count[mask] = remaining

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def progress(self) -> Dict[str, int]:
        """A cheap snapshot of the join state, for span tags and logs:
        tuples retrieved, completions, partial buckets still pending and
        live seen-mask groups (the §IV-B bound's granularity)."""
        return {
            "tuples_retrieved": self.tuples_retrieved,
            "completed": len(self.completed),
            "pending": len(self._bucket),
            "groups": len(self._group_count),
        }

    # ------------------------------------------------------------------
    # thresholds
    # ------------------------------------------------------------------

    def _next_scores(self) -> List[Optional[float]]:
        return [inp.peek_score() for inp in self.inputs]

    def threshold(self) -> float:
        """Upper bound on the score of any result not yet completed."""
        self.stats.threshold_checks += 1
        nexts = self._next_scores()
        if self.bound_mode == CLASSIC:
            return self._classic_threshold(nexts)
        return self._group_threshold(nexts)

    def _classic_threshold(self, nexts: List[Optional[float]]) -> float:
        best = -math.inf
        for i, s_next in enumerate(nexts):
            if s_next is None:
                continue
            vector = []
            feasible = True
            for j, s_max in enumerate(self._max_scores):
                if j == i:
                    vector.append(s_next)
                elif s_max is None:
                    feasible = False
                    break
                else:
                    vector.append(s_max)
            if feasible:
                best = max(best, self.ops.complete(vector))
        # Partial results are not tracked separately by HRJN; ids already
        # seen somewhere are covered because s_m^j >= their seen scores.
        if any(s is None for s in nexts) and self._bucket:
            best = max(best, self._group_threshold(nexts))
        return best

    def _group_threshold(self, nexts: List[Optional[float]]) -> float:
        if self.ops.mode == "sum":
            return self._group_threshold_sum(nexts)
        # Case 1: ids unseen everywhere.
        best = self.ops.bound(self.ops.identity, nexts, range(self.k))
        for mask, partial_best in self._group_best.items():
            unseen = [j for j in range(self.k) if not mask & (1 << j)]
            total = self.ops.bound(partial_best, nexts, unseen)
            if total > best:
                best = total
        return best

    def _group_threshold_sum(self, nexts: List[Optional[float]]) -> float:
        """Additive fast path: precompute the sum over alive inputs once,
        then each group's bound is partial + (next_sum - seen part)."""
        next_sum = 0.0
        alive_mask = 0
        for j, s_next in enumerate(nexts):
            if s_next is not None:
                next_sum += s_next
                alive_mask |= 1 << j
        full = (1 << self.k) - 1
        best = next_sum if alive_mask == full else -math.inf
        for mask, partial_best in self._group_best.items():
            unseen = full & ~mask
            if unseen & ~alive_mask:
                continue  # an unseen input is exhausted: dead partial
            total = partial_best
            for j in range(self.k):
                if unseen & (1 << j):
                    total += nexts[j]
            if total > best:
                best = total
        return best

    @property
    def exhausted(self) -> bool:
        return all(inp.peek_score() is None for inp in self.inputs)


def topk_join(relations: Sequence[Sequence[Tuple[int, float]]], k: int,
              bound_mode: str = GROUP
              ) -> Tuple[List[CompletedResult], int]:
    """Standalone top-K star join over pre-sorted relations.

    Runs until K results can be *emitted* (score >= threshold for the
    still-unseen results) or the inputs are exhausted.  Returns the
    emitted results in emission order and the number of tuples retrieved
    -- the ablation metric comparing the two bounds.
    """
    join = TopKStarJoin([ListInput(r) for r in relations], k, bound_mode)
    emitted: List[CompletedResult] = []
    buffer: List[CompletedResult] = []
    emitted_keys: set = set()
    while len(emitted) < k:
        progressed = join.step()
        buffer = [c for c in join.completed if c.key not in emitted_keys]
        buffer.sort(key=lambda c: -c.score)
        bound = join.threshold()
        while buffer and len(emitted) < k and (
                buffer[0].score >= bound or join.exhausted):
            result = buffer.pop(0)
            emitted.append(result)
            emitted_keys.add(result.key)
        if not progressed:
            break
    return emitted, join.tuples_retrieved


# ---------------------------------------------------------------------------
# length-grouped score lists (formerly repro.index.scored)
# ---------------------------------------------------------------------------

class ScoreGroup:
    """Sequences of one exact length, sorted by descending local score."""

    __slots__ = ("length", "ordinals", "scores")

    def __init__(self, length: int, ordinals: np.ndarray, scores: np.ndarray):
        order = np.lexsort((ordinals, -scores))
        self.length = length
        self.ordinals = ordinals[order]
        self.scores = scores[order]

    def __len__(self) -> int:
        return len(self.ordinals)


class GroupedScoredPostings:
    """Length-grouped, score-sorted occurrences of one term."""

    def __init__(self, postings: ColumnarPostings, damping_base: float):
        if not 0.0 < damping_base <= 1.0:
            raise ValueError("damping base must be in (0, 1]")
        self.postings = postings
        self.damping_base = damping_base
        self.groups: Dict[int, ScoreGroup] = {}
        lengths = postings.lengths
        for length in np.unique(lengths):
            mask = lengths == length
            ordinals = np.nonzero(mask)[0].astype(np.int64)
            self.groups[int(length)] = ScoreGroup(
                int(length), ordinals, postings.scores[ordinals])
        self.max_len = postings.max_len

    def __len__(self) -> int:
        return len(self.postings)

    def damp(self, raw_score: float, length: int, level: int) -> float:
        return raw_score * self.damping_base ** (length - level)

    def max_damped(self, level: int) -> float:
        """Upper bound s_m(level): best possible damped score in the column.

        The bound scans group heads, so it stays valid even before any
        cursor consumption (the paper uses the list-head scores s_m^i).
        """
        best = 0.0
        for length, group in self.groups.items():
            if length < level or len(group) == 0:
                continue
            best = max(best, self.damp(float(group.scores[0]), length, level))
        return best

    def cursor(self, level: int,
               skip: Optional[Callable[[int], bool]] = None) -> "ColumnCursor":
        """A fresh merged cursor over column `level`.

        ``skip(ordinal) -> bool`` filters out erased sequences (consumed
        by deeper ELCAs) so they never become witnesses.
        """
        return ColumnCursor(self, level, skip)


class ColumnCursor:
    """Merged descending-score cursor over one column of one term.

    `peek_score` is the s^i of the top-K join (score of the next tuple);
    `pop` returns ``(number, ordinal, damped_score)`` for the best
    remaining occurrence at this level.
    """

    def __init__(self, scored: GroupedScoredPostings, level: int,
                 skip: Optional[Callable[[int], bool]] = None):
        self.scored = scored
        self.level = level
        self.skip = skip
        self._column = scored.postings.column(level)
        self._positions: Dict[int, int] = {}
        self._heap: List[Tuple[float, int, int]] = []  # (-score, length, pos)
        for length, group in scored.groups.items():
            if length < level or len(group) == 0:
                continue
            self._positions[length] = 0
            self._push_head(length, 0)
        self.retrieved = 0

    def _push_head(self, length: int, pos: int) -> None:
        group = self.scored.groups[length]
        while pos < len(group):
            ordinal = int(group.ordinals[pos])
            if self.skip is not None and self.skip(ordinal):
                pos += 1
                continue
            damped = self.scored.damp(float(group.scores[pos]), length,
                                      self.level)
            heapq.heappush(self._heap, (-damped, length, pos))
            self._positions[length] = pos
            return
        self._positions[length] = pos

    def peek_score(self) -> Optional[float]:
        """Damped score of the next occurrence, or None when exhausted."""
        while self._heap:
            neg_score, length, pos = self._heap[0]
            group = self.scored.groups[length]
            ordinal = int(group.ordinals[pos])
            if self.skip is not None and self.skip(ordinal):
                heapq.heappop(self._heap)
                self._push_head(length, pos + 1)
                continue
            return -neg_score
        return None

    def pop(self) -> Optional[Tuple[int, int, float]]:
        """Retrieve the best remaining occurrence: (number, ordinal, score)."""
        while self._heap:
            neg_score, length, pos = heapq.heappop(self._heap)
            self._push_head(length, pos + 1)
            group = self.scored.groups[length]
            ordinal = int(group.ordinals[pos])
            if self.skip is not None and self.skip(ordinal):
                continue
            column = self._column
            number = int(column.distinct[np.searchsorted(
                column.run_ordinals, ordinal, side="right") - 1])
            self.retrieved += 1
            return number, ordinal, -neg_score
        return None

    @property
    def exhausted(self) -> bool:
        return self.peek_score() is None


# ---------------------------------------------------------------------------
# the per-tuple driver (formerly TopKKeywordSearch.stream)
# ---------------------------------------------------------------------------

class _CursorInput:
    """Adapts a `ColumnCursor` to the star join's ranked-input protocol."""

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


def erased_probe(eraser) -> Callable[[int], bool]:
    """The scalar ``is_erased(ordinal)`` the erasers no longer carry."""
    return lambda ordinal: not eraser.free_mask(np.asarray([ordinal]))[0]


def _span(column, number: int) -> Tuple[int, int]:
    """The ordinal span [lo, hi) of `number`'s run in `column`."""
    lo, hi = column.ordinal_spans(column.runs_of(np.asarray([number])))
    return int(lo[0]), int(hi[0])


class PerTupleTopKSearch(TopKKeywordSearch):
    """`TopKKeywordSearch` as it ran before the block engine: one
    `TopKStarJoin.step` per tuple, an emission attempt when a result
    completes or every 16 steps.  `search` takes the first k of this
    `stream` -- the inherited one would run the block engine's level
    loop instead."""

    def search(self, terms, k: int, semantics: str = ELCA,
               deadline=None) -> TopKResult:
        stats, state = ExecutionStats(), _StreamState()
        stream = self.stream(terms, semantics, stats, target_k=k,
                             _state=state)
        results = list(itertools.islice(stream, max(k, 0)))
        stream.close()
        return TopKResult(ResultSet.of(self.index.nodes, results), stats,
                          terminated_early=not state.finished)

    def stream(self, terms, semantics: str = ELCA, stats=None,
               target_k: int = 2 ** 30, _state=None, deadline=None):
        check_semantics(semantics)
        if stats is None:
            stats = ExecutionStats()
        state = _state if _state is not None else _StreamState()
        terms = list(terms)
        postings = self.index.query_postings(terms) if terms else []
        if not terms or any(len(p) == 0 for p in postings):
            state.finished = True
            return
        term_order = {p.term: i for i, p in enumerate(postings)}
        caller_slot = [term_order[t] for t in terms]
        ops = self._bound_ops(caller_slot)
        base = self.ranking.damping.base
        scored = [GroupedScoredPostings(p, base) for p in postings]
        erasers = [make_eraser(self.eraser_mode, len(p)) for p in postings]
        start_level = min(p.max_len for p in postings)
        cross_bound: List[float] = []
        running = -float("inf")
        for level in range(1, start_level + 1):
            running = max(running, ops.complete(
                [s.max_damped(level) for s in scored]))
            cross_bound.append(running)

        buffer: List[Tuple[float, Tuple[int, ...], SearchResult]] = []

        def collect(completions, level, columns):
            for completed in completions:
                result = self._materialize(completed, level, columns,
                                           erasers, semantics, caller_slot)
                if result is not None:
                    heapq.heappush(
                        buffer, (-result.score, result.node.dewey, result))

        for level in range(start_level, 0, -1):
            below = cross_bound[level - 2] if level > 1 else -float("inf")
            columns = [p.column(level) for p in postings]
            if any(len(c) == 0 for c in columns):
                while buffer and -buffer[0][0] >= below:
                    stats.results_emitted += 1
                    yield heapq.heappop(buffer)[2]
                continue
            stats.levels_processed += 1
            inputs = [_CursorInput(s.cursor(level, skip=erased_probe(e)))
                      for s, e in zip(scored, erasers)]
            join = TopKStarJoin(inputs, target_k, self.bound_mode, stats,
                                ops)
            consumed = 0
            steps_since_attempt = 0
            while join.step():
                steps_since_attempt += 1
                if (len(join.completed) == consumed
                        and steps_since_attempt < 16):
                    continue
                steps_since_attempt = 0
                collect(join.completed[consumed:], level, columns)
                consumed = len(join.completed)
                bound = max(join.threshold(), below)
                while buffer and -buffer[0][0] >= bound:
                    stats.results_emitted += 1
                    yield heapq.heappop(buffer)[2]
            collect(join.completed[consumed:], level, columns)
            self._erase_level(columns, erasers, stats, level)
            if level == 1:
                state.finished = True
            while buffer and -buffer[0][0] >= below:
                stats.results_emitted += 1
                yield heapq.heappop(buffer)[2]
        state.finished = True
        while buffer:
            stats.results_emitted += 1
            yield heapq.heappop(buffer)[2]

    def _materialize(self, completed, level: int, columns, erasers,
                     semantics: str,
                     caller_slot: List[int]) -> Optional[SearchResult]:
        """Turn a star-join completion into a result (or reject for SLCA)."""
        number = completed.key
        if semantics == SLCA:
            for t, column in enumerate(columns):
                if erasers[t].erased_count(*_span(column, number)):
                    return None
        node = self.index.node_at(level, number)
        witness = tuple(completed.scores[slot] for slot in caller_slot)
        return SearchResult(node, level, self.ranking.score_result(witness),
                            witness)

    def _erase_level(self, columns, erasers, stats: ExecutionStats,
                     level: int) -> None:
        joined = self.planner.intersect_all(
            [c.distinct for c in columns], stats, level)
        for t, column in enumerate(columns):
            for number in joined.tolist():
                lo, hi = _span(column, number)
                erasers[t].mark(lo, hi)
                stats.erasures += hi - lo
