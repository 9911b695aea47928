"""Semantic-pruning bookkeeping: erased sequence ranges (section III-E).

When a JDewey number joins at some level, *every* sequence running
through that node is consumed: those occurrences belong to a subtree
that already contains all keywords and must not witness any higher
result.  Because a term's sequences are sorted in JDewey order, the
sequences through one node always occupy a contiguous range of ordinals,
and ranges arising at different levels are *contained or disjoint*
(paper Figure 4) -- the geometry that makes range checking a binary
search.

A query keeps one eraser over all its terms' ordinals: term t's
ordinals sit at an offset ``base_t`` (`repro.algorithms.join_based.
LevelRun`), so spans of different terms are disjoint and the geometry
above holds inside each term -- every structure below works on the
query-wide ordinal space unchanged, and a level is one bulk call each
way.

Three interchangeable implementations:

* `BitmapEraser`   -- a boolean array over the ordinals; simple,
  O(range) marks and counts.  The default execution path.
* `IntervalEraser` -- the paper's range-checking structure: a sorted set
  of disjoint intervals with O(log n) queries; marks exploit the
  contained-or-disjoint property to merge swallowed ranges.
* `RoaringEraser`  -- 2^16-ordinal chunks, each an array, run list or
  bitset container by density; accepts arbitrary overlapping marks.

All expose scalar (`mark`/`erased_count`) and bulk
(`mark_many`/`erased_counts`/`free_mask`) APIs; the bulk entry points
back the level steps of `repro.algorithms.join_based`, one call each
per level.  The bitmap answers bulk counts from a cached cumulative-sum
prefix array (rebuilt lazily after marks change, never built while
nothing is marked); the interval and roaring erasers answer them with a
vectorized binary search over their run endpoints.

They are property-tested for equivalence and benchmarked in the
range-checking ablation.
"""

from __future__ import annotations

import bisect
from typing import List, Optional, Tuple

import numpy as np


def _check_bulk_ranges(lows: np.ndarray, highs: np.ndarray,
                       size: int) -> None:
    if len(lows) != len(highs):
        raise ValueError("lows and highs must have equal length")
    if len(lows) == 0:
        return
    if int(lows.min()) < 0 or int(highs.max()) > size \
            or bool(np.any(lows > highs)):
        raise ValueError(f"bulk ranges outside [0, {size})")


class BitmapEraser:
    """Per-ordinal boolean erasure marks."""

    def __init__(self, size: int):
        self.size = size
        self._marks = np.zeros(size, dtype=bool)
        self._prefix: Optional[np.ndarray] = None
        self._clean = True      # nothing marked: no count, all free

    def mark(self, lo: int, hi: int) -> None:
        """Erase ordinals in [lo, hi)."""
        if not 0 <= lo <= hi <= self.size:
            raise ValueError(f"range [{lo}, {hi}) outside [0, {self.size})")
        if hi > lo:
            self._marks[lo:hi] = True
            self._prefix = None
            self._clean = False

    def mark_many(self, lows: np.ndarray, highs: np.ndarray) -> None:
        """Erase every [lows[i], highs[i]) in one validated pass.

        Sparse batches (few ranges relative to the bitmap) use direct
        slice assignment; dense batches switch to a difference array --
        +1 at each low, -1 at each high, cumulative sum marks every
        covered ordinal -- which is O(size + n) regardless of how the
        ranges overlap.
        """
        lows = np.asarray(lows, dtype=np.int64)
        highs = np.asarray(highs, dtype=np.int64)
        _check_bulk_ranges(lows, highs, self.size)
        if len(lows) == 0:
            return
        if len(lows) * 32 < self.size:
            marks = self._marks
            for lo, hi in zip(lows.tolist(), highs.tolist()):
                marks[lo:hi] = True
        else:
            diff = np.zeros(self.size + 1, dtype=np.int64)
            np.add.at(diff, lows, 1)
            np.add.at(diff, highs, -1)
            self._marks |= np.cumsum(diff[:-1]) > 0
        self._prefix = None
        self._clean = False

    def erased_count(self, lo: int, hi: int) -> int:
        return int(self._marks[lo:hi].sum())

    def erased_counts(self, lows: np.ndarray, highs: np.ndarray
                      ) -> np.ndarray:
        """Erased ordinals within each [lows[i], highs[i]), in bulk."""
        lows = np.asarray(lows, dtype=np.int64)
        highs = np.asarray(highs, dtype=np.int64)
        _check_bulk_ranges(lows, highs, self.size)
        if self._clean:
            return np.zeros(len(lows), dtype=np.int64)
        if self._prefix is None:
            self._prefix = np.concatenate(
                ([0], np.cumsum(self._marks, dtype=np.int64)))
        return self._prefix[highs] - self._prefix[lows]

    def free_mask(self, ordinals: np.ndarray) -> np.ndarray:
        """Boolean mask of *non*-erased entries for an ordinal array."""
        if self._clean:
            return np.ones(len(ordinals), dtype=bool)
        return ~self._marks[ordinals]

    @property
    def total_erased(self) -> int:
        return int(self._marks.sum())


class IntervalEraser:
    """Disjoint sorted intervals with prefix-sum counting.

    `mark` assumes the paper's contained-or-disjoint geometry: a new
    interval either contains a consecutive block of existing intervals
    (it swallows them) or is disjoint from all of them.  Overlapping
    partial ranges raise, which doubles as a structural assertion that
    the join algorithm respects the geometry.
    """

    def __init__(self, size: int):
        self.size = size
        self._starts: List[int] = []
        self._ends: List[int] = []
        self._arrays: Optional[Tuple[np.ndarray, np.ndarray,
                                     np.ndarray]] = None

    def mark(self, lo: int, hi: int) -> None:
        if not 0 <= lo <= hi <= self.size:
            raise ValueError(f"range [{lo}, {hi}) outside [0, {self.size})")
        if lo == hi:
            return
        left = bisect.bisect_left(self._ends, lo + 1)
        right = bisect.bisect_left(self._starts, hi)
        swallowed_starts = self._starts[left:right]
        swallowed_ends = self._ends[left:right]
        if swallowed_starts and (swallowed_starts[0] < lo
                                 or swallowed_ends[-1] > hi):
            raise ValueError(
                "partial overlap violates the contained-or-disjoint property")
        self._starts[left:right] = [lo]
        self._ends[left:right] = [hi]
        self._arrays = None

    def mark_many(self, lows: np.ndarray, highs: np.ndarray) -> None:
        """Erase every [lows[i], highs[i]).

        Interval maintenance is inherently sequential (each mark may
        swallow earlier intervals), so this is a validated loop over
        `mark`; the bulk win for this eraser is on the query side.
        """
        lows = np.asarray(lows, dtype=np.int64)
        highs = np.asarray(highs, dtype=np.int64)
        _check_bulk_ranges(lows, highs, self.size)
        for lo, hi in zip(lows, highs):
            self.mark(int(lo), int(hi))

    def _as_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(starts, ends, prefix) views; prefix[i] is the total erased
        length of intervals before i (cached until the next mark)."""
        if self._arrays is None:
            starts = np.asarray(self._starts, dtype=np.int64)
            ends = np.asarray(self._ends, dtype=np.int64)
            prefix = np.concatenate(
                ([0], np.cumsum(ends - starts, dtype=np.int64)))
            self._arrays = (starts, ends, prefix)
        return self._arrays

    def _coverage(self, points: np.ndarray) -> np.ndarray:
        """Erased ordinals strictly below each point (vectorized)."""
        starts, ends, prefix = self._as_arrays()
        idx = np.searchsorted(starts, points, side="right") - 1
        clamped = np.maximum(idx, 0)
        inside = np.clip(points - starts[clamped], 0,
                         ends[clamped] - starts[clamped])
        return np.where(idx < 0, 0, prefix[clamped] + inside)

    def erased_count(self, lo: int, hi: int) -> int:
        """Erased ordinals within [lo, hi) via binary search."""
        total = 0
        i = bisect.bisect_left(self._ends, lo + 1)
        while i < len(self._starts) and self._starts[i] < hi:
            total += min(self._ends[i], hi) - max(self._starts[i], lo)
            i += 1
        return total

    def erased_counts(self, lows: np.ndarray, highs: np.ndarray
                      ) -> np.ndarray:
        """Erased ordinals within each [lows[i], highs[i]), in bulk.

        Computed as a difference of the cumulative coverage function,
        each side one vectorized binary search over interval endpoints.
        """
        lows = np.asarray(lows, dtype=np.int64)
        highs = np.asarray(highs, dtype=np.int64)
        _check_bulk_ranges(lows, highs, self.size)
        if not self._starts or len(lows) == 0:
            return np.zeros(len(lows), dtype=np.int64)
        return self._coverage(highs) - self._coverage(lows)

    def free_mask(self, ordinals: np.ndarray) -> np.ndarray:
        ordinals = np.asarray(ordinals, dtype=np.int64)
        if not self._starts or len(ordinals) == 0:
            return np.ones(len(ordinals), dtype=bool)
        starts, ends, _prefix = self._as_arrays()
        idx = np.searchsorted(starts, ordinals, side="right") - 1
        clamped = np.maximum(idx, 0)
        erased = (idx >= 0) & (ordinals < ends[clamped])
        return ~erased

    @property
    def total_erased(self) -> int:
        return sum(e - s for s, e in zip(self._starts, self._ends))

    @property
    def intervals(self) -> List[Tuple[int, int]]:
        return list(zip(self._starts, self._ends))


# ---------------------------------------------------------------------------
# Roaring-style eraser
# ---------------------------------------------------------------------------
#
# Reachable by name (``eraser_mode="roaring"``) only; nothing defaults
# to it: on the erase-heaviest queries of the benchmark corpus the
# dense bitmap is faster (6.0 ms against 8.1).

_CHUNK_BITS = 16
_CHUNK = 1 << _CHUNK_BITS
#: An array container past this cardinality promotes to a bitset
#: (the classic roaring threshold: 4096 * 2 bytes == one bitset word
#: budget's break-even).
_ARRAY_MAX = 4096
#: A run container past this many runs promotes to a bitset.
_RUN_MAX = 2048


def _runs_from_values(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Sorted unique ordinals -> disjoint [start, end) runs."""
    if values.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    breaks = np.flatnonzero(np.diff(values) > 1)
    starts = values[np.concatenate(([0], breaks + 1))]
    ends = values[np.concatenate((breaks, [values.size - 1]))] + 1
    return starts.astype(np.int64), ends.astype(np.int64)


def _runs_from_mask(mask: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Boolean mask -> disjoint [start, end) runs."""
    edges = np.diff(np.concatenate(([0], mask.astype(np.int8), [0])))
    return (np.flatnonzero(edges == 1).astype(np.int64),
            np.flatnonzero(edges == -1).astype(np.int64))


class _ArrayChunk:
    """Sparse chunk: sorted unique ordinals (chunk-relative)."""

    __slots__ = ("values",)

    def __init__(self, values: np.ndarray):
        self.values = values

    def to_runs(self) -> Tuple[np.ndarray, np.ndarray]:
        return _runs_from_values(self.values)

    def cardinality(self) -> int:
        return int(self.values.size)


class _RunChunk:
    """Mid-density chunk: disjoint sorted [start, end) runs."""

    __slots__ = ("starts", "ends")

    def __init__(self, starts: np.ndarray, ends: np.ndarray):
        self.starts = starts
        self.ends = ends

    def to_runs(self) -> Tuple[np.ndarray, np.ndarray]:
        return self.starts, self.ends

    def cardinality(self) -> int:
        return int((self.ends - self.starts).sum())


class _BitsetChunk:
    """Dense chunk: 1024 uint64 words, one bit per ordinal."""

    __slots__ = ("words",)

    def __init__(self, words: Optional[np.ndarray] = None):
        self.words = words if words is not None \
            else np.zeros(_CHUNK // 64, dtype=np.uint64)

    def set_range(self, lo: int, hi: int) -> None:
        """Set bits [lo, hi) with word-level masks (little-endian bit
        order: ordinal o lives in word o >> 6, bit o & 63)."""
        if hi <= lo:
            return
        first, last = lo >> 6, (hi - 1) >> 6
        ones = np.uint64(0xFFFFFFFFFFFFFFFF)
        head = ones << np.uint64(lo & 63)
        tail = ones >> np.uint64(63 - ((hi - 1) & 63))
        if first == last:
            self.words[first] |= head & tail
        else:
            self.words[first] |= head
            self.words[last] |= tail
            self.words[first + 1: last] = ones

    def to_mask(self) -> np.ndarray:
        return np.unpackbits(self.words.view(np.uint8),
                             bitorder="little").astype(bool)

    def to_runs(self) -> Tuple[np.ndarray, np.ndarray]:
        return _runs_from_mask(self.to_mask())

    def cardinality(self) -> int:
        # popcount via the 8-bit lookup of unpackbits' byte view
        return int(np.unpackbits(self.words.view(np.uint8)).sum())


def _mask_to_bitset(mask: np.ndarray) -> _BitsetChunk:
    words = np.packbits(mask, bitorder="little").view(np.uint64).copy()
    return _BitsetChunk(words)


def _chunk_to_bitset(chunk) -> _BitsetChunk:
    if isinstance(chunk, _BitsetChunk):
        return chunk
    mask = np.zeros(_CHUNK, dtype=bool)
    if isinstance(chunk, _ArrayChunk):
        mask[chunk.values] = True
    else:
        diff = np.zeros(_CHUNK + 1, dtype=np.int8)
        diff[chunk.starts] = 1
        np.add.at(diff, chunk.ends, -1)
        mask = np.cumsum(diff[:-1]) > 0
    return _mask_to_bitset(mask)


def _merge_run(starts: np.ndarray, ends: np.ndarray,
               lo: int, hi: int) -> Tuple[np.ndarray, np.ndarray]:
    """Union [lo, hi) into disjoint sorted runs (general overlap)."""
    left = int(np.searchsorted(ends, lo, side="left"))
    right = int(np.searchsorted(starts, hi, side="right"))
    if left < right:
        lo = min(lo, int(starts[left]))
        hi = max(hi, int(ends[right - 1]))
    return (np.concatenate((starts[:left], [lo], starts[right:])),
            np.concatenate((ends[:left], [hi], ends[right:])))


def _union_runs(s1: np.ndarray, e1: np.ndarray,
                s2: np.ndarray, e2: np.ndarray
                ) -> Tuple[np.ndarray, np.ndarray]:
    """Union two run sets into disjoint sorted runs: sort by start,
    then a running-maximum sweep closes every overlap in one pass."""
    s = np.concatenate((s1, s2))
    e = np.concatenate((e1, e2))
    order = np.argsort(s, kind="stable")
    s, e = s[order], e[order]
    reach = np.maximum.accumulate(e)
    new_run = np.concatenate(([True], s[1:] > reach[:-1]))
    return s[new_run], np.maximum.reduceat(e, np.flatnonzero(new_run))


class RoaringEraser:
    """Roaring-style erasure set: the ordinal space splits into 2^16
    chunks, each held as whichever container is cheapest for its
    density -- a sorted ordinal array (sparse), a run list (clustered,
    the usual shape for subtree ranges), or a packed 64-bit bitset
    (dense), with the classic promotion thresholds.

    Unlike `IntervalEraser` it accepts arbitrary overlapping marks
    (general union), and unlike `BitmapEraser` its storage and bulk
    mark cost scale with the *marked* area, not the list size.  Bulk
    queries flatten the containers once into global disjoint runs
    (cached until the next mark) and answer `erased_counts` /
    `free_mask` with the same two-sided vectorized binary search the
    interval eraser uses.
    """

    def __init__(self, size: int):
        self.size = size
        self._chunks: dict = {}
        self._flat: Optional[Tuple[np.ndarray, np.ndarray,
                                   np.ndarray]] = None

    # -- marking ----------------------------------------------------------

    def mark(self, lo: int, hi: int) -> None:
        """Erase ordinals in [lo, hi); overlapping marks union."""
        if not 0 <= lo <= hi <= self.size:
            raise ValueError(f"range [{lo}, {hi}) outside [0, {self.size})")
        if hi > lo:
            self._add_run(lo, hi)
            self._flat = None

    def mark_many(self, lows: np.ndarray, highs: np.ndarray) -> None:
        """Erase every [lows[i], highs[i]) in one pass.

        The batch is first normalised to disjoint runs with a sort +
        running-maximum sweep (pure numpy), so heavily overlapping
        batches collapse before any container is touched.
        """
        lows = np.asarray(lows, dtype=np.int64)
        highs = np.asarray(highs, dtype=np.int64)
        _check_bulk_ranges(lows, highs, self.size)
        keep = highs > lows
        lows, highs = lows[keep], highs[keep]
        if lows.size == 0:
            return
        empty = np.empty(0, dtype=np.int64)
        run_lo, run_hi = _union_runs(lows, highs, empty, empty)
        # Split the merged runs at chunk boundaries; pieces stay sorted
        # by chunk, so each affected container rebuilds exactly once.
        first = run_lo >> _CHUNK_BITS
        last = (run_hi - 1) >> _CHUNK_BITS
        counts = last - first + 1
        idx = np.repeat(np.arange(run_lo.size), counts)
        offsets = np.arange(idx.size) \
            - np.repeat(np.cumsum(counts) - counts, counts)
        ci = first[idx] + offsets
        base = ci << _CHUNK_BITS
        piece_lo = np.maximum(run_lo[idx], base) - base
        piece_hi = np.minimum(run_hi[idx], base + _CHUNK) - base
        uniq, chunk_starts = np.unique(ci, return_index=True)
        bounds = np.append(chunk_starts, ci.size)
        for k, c in enumerate(uniq.tolist()):
            self._apply_chunk_runs(int(c),
                                   piece_lo[bounds[k]:bounds[k + 1]],
                                   piece_hi[bounds[k]:bounds[k + 1]])
        self._flat = None

    def _apply_chunk_runs(self, ci: int, piece_lo: np.ndarray,
                          piece_hi: np.ndarray) -> None:
        """Union a sorted batch of disjoint runs into one chunk."""
        chunk = self._chunks.get(ci)
        if isinstance(chunk, _BitsetChunk):
            if piece_lo.size <= 8:
                for lo, hi in zip(piece_lo.tolist(), piece_hi.tolist()):
                    chunk.set_range(int(lo), int(hi))
            else:
                diff = np.zeros(_CHUNK + 1, dtype=np.int32)
                np.add.at(diff, piece_lo, 1)
                np.add.at(diff, piece_hi, -1)
                mask = np.cumsum(diff[:-1]) > 0
                chunk.words |= np.packbits(
                    mask, bitorder="little").view(np.uint64)
            return
        if chunk is None:
            s_old = e_old = np.empty(0, dtype=np.int64)
        else:
            s_old, e_old = chunk.to_runs()
        s, e = _union_runs(s_old, e_old, piece_lo, piece_hi)
        if s.size > _RUN_MAX:
            self._chunks[ci] = _chunk_to_bitset(_RunChunk(s, e))
        else:
            self._chunks[ci] = _RunChunk(s, e)

    def _add_run(self, lo: int, hi: int) -> None:
        """Union [lo, hi) into the chunk containers it crosses."""
        first, last = lo >> _CHUNK_BITS, (hi - 1) >> _CHUNK_BITS
        for ci in range(first, last + 1):
            base = ci << _CHUNK_BITS
            rel_lo = max(lo - base, 0)
            rel_hi = min(hi - base, _CHUNK)
            self._add_chunk_run(ci, rel_lo, rel_hi)

    def _add_chunk_run(self, ci: int, lo: int, hi: int) -> None:
        chunk = self._chunks.get(ci)
        if chunk is None:
            if hi - lo == 1:
                self._chunks[ci] = _ArrayChunk(
                    np.asarray([lo], dtype=np.int64))
            else:
                self._chunks[ci] = _RunChunk(
                    np.asarray([lo], dtype=np.int64),
                    np.asarray([hi], dtype=np.int64))
            return
        if isinstance(chunk, _BitsetChunk):
            chunk.set_range(lo, hi)
            return
        if isinstance(chunk, _ArrayChunk) and hi - lo == 1:
            pos = int(np.searchsorted(chunk.values, lo))
            if pos < chunk.values.size and chunk.values[pos] == lo:
                return
            chunk.values = np.insert(chunk.values, pos, lo)
            if chunk.values.size > _ARRAY_MAX:
                self._chunks[ci] = _chunk_to_bitset(chunk)
            return
        if isinstance(chunk, _ArrayChunk):
            starts, ends = chunk.to_runs()
        else:
            starts, ends = chunk.starts, chunk.ends
        starts, ends = _merge_run(starts, ends, lo, hi)
        if starts.size > _RUN_MAX:
            self._chunks[ci] = _chunk_to_bitset(
                _RunChunk(starts, ends))
        else:
            self._chunks[ci] = _RunChunk(starts, ends)

    # -- querying ---------------------------------------------------------

    def _flatten(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Global disjoint sorted runs + erased-length prefix sums."""
        if self._flat is None:
            all_starts: List[np.ndarray] = []
            all_ends: List[np.ndarray] = []
            for ci in sorted(self._chunks):
                starts, ends = self._chunks[ci].to_runs()
                base = np.int64(ci << _CHUNK_BITS)
                all_starts.append(starts + base)
                all_ends.append(ends + base)
            if all_starts:
                starts = np.concatenate(all_starts)
                ends = np.concatenate(all_ends)
                # adjacent chunks can abut; coverage math tolerates
                # touching runs, so no re-merge is needed
            else:
                starts = np.empty(0, dtype=np.int64)
                ends = np.empty(0, dtype=np.int64)
            prefix = np.concatenate(
                ([0], np.cumsum(ends - starts, dtype=np.int64)))
            self._flat = (starts, ends, prefix)
        return self._flat

    def _coverage(self, points: np.ndarray) -> np.ndarray:
        """Erased ordinals strictly below each point (vectorized)."""
        starts, ends, prefix = self._flatten()
        idx = np.searchsorted(starts, points, side="right") - 1
        clamped = np.maximum(idx, 0)
        inside = np.clip(points - starts[clamped], 0,
                         ends[clamped] - starts[clamped])
        return np.where(idx < 0, 0, prefix[clamped] + inside)

    def erased_count(self, lo: int, hi: int) -> int:
        counts = self.erased_counts(np.asarray([lo], dtype=np.int64),
                                    np.asarray([hi], dtype=np.int64))
        return int(counts[0])

    def erased_counts(self, lows: np.ndarray, highs: np.ndarray
                      ) -> np.ndarray:
        """Erased ordinals within each [lows[i], highs[i]), in bulk."""
        lows = np.asarray(lows, dtype=np.int64)
        highs = np.asarray(highs, dtype=np.int64)
        _check_bulk_ranges(lows, highs, self.size)
        starts, _ends, _prefix = self._flatten()
        if starts.size == 0 or len(lows) == 0:
            return np.zeros(len(lows), dtype=np.int64)
        return self._coverage(highs) - self._coverage(lows)

    def free_mask(self, ordinals: np.ndarray) -> np.ndarray:
        """Boolean mask of *non*-erased entries for an ordinal array."""
        ordinals = np.asarray(ordinals, dtype=np.int64)
        starts, ends, _prefix = self._flatten()
        if starts.size == 0 or len(ordinals) == 0:
            return np.ones(len(ordinals), dtype=bool)
        idx = np.searchsorted(starts, ordinals, side="right") - 1
        clamped = np.maximum(idx, 0)
        erased = (idx >= 0) & (ordinals < ends[clamped])
        return ~erased

    @property
    def total_erased(self) -> int:
        _starts, _ends, prefix = self._flatten()
        return int(prefix[-1])

    @property
    def runs(self) -> List[Tuple[int, int]]:
        """Global disjoint [start, end) runs (diagnostics/tests)."""
        starts, ends, _prefix = self._flatten()
        return list(zip(starts.tolist(), ends.tolist()))

    @property
    def container_kinds(self) -> dict:
        """{kind: count} over live chunk containers (diagnostics)."""
        kinds = {"array": 0, "run": 0, "bitset": 0}
        for chunk in self._chunks.values():
            if isinstance(chunk, _ArrayChunk):
                kinds["array"] += 1
            elif isinstance(chunk, _RunChunk):
                kinds["run"] += 1
            else:
                kinds["bitset"] += 1
        return kinds


ERASER_MODES = {"bitmap": BitmapEraser, "interval": IntervalEraser,
                "roaring": RoaringEraser}


def make_eraser(mode: str, size: int):
    """Factory for the erasure strategies."""
    try:
        cls = ERASER_MODES[mode]
    except KeyError:
        raise ValueError(
            f"unknown eraser mode {mode!r}; one of {sorted(ERASER_MODES)}")
    return cls(size)
