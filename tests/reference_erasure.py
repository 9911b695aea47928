"""The section III-E range-checking structure, kept as the tests'
reference eraser.

`repro.algorithms.erasure.BitmapEraser` is the engine's one eraser, read
and written in bulk over a query's ordinals.  This is the paper's own
design, one range at a time: a sorted list of disjoint erased intervals
with binary-search counts.  A mark either swallows the consecutive block
of intervals it contains or is disjoint from all of them -- Figure 4's
contained-or-disjoint geometry -- and a partial overlap raises, so every
reference run (``tests/reference_join.py``, ``tests/reference_topk.py``)
also asserts that the level join erases in that geometry.
"""

from __future__ import annotations

import bisect
from typing import List, Optional, Tuple

import numpy as np


class RangeCheckingEraser:
    """Disjoint sorted erased intervals over ordinals ``[0, size)``."""

    def __init__(self, size: int):
        self.size = size
        self._starts: List[int] = []
        self._ends: List[int] = []
        self._arrays: Optional[Tuple[np.ndarray, np.ndarray,
                                     np.ndarray]] = None

    def _check(self, lo: int, hi: int) -> None:
        if not 0 <= lo <= hi <= self.size:
            raise ValueError(f"range [{lo}, {hi}) outside [0, {self.size})")

    def mark(self, lo: int, hi: int) -> None:
        """Erase [lo, hi), swallowing the intervals it contains."""
        self._check(lo, hi)
        if lo == hi:
            return
        left = bisect.bisect_left(self._ends, lo + 1)
        right = bisect.bisect_left(self._starts, hi)
        if left < right and (self._starts[left] < lo
                             or self._ends[right - 1] > hi):
            raise ValueError(
                "partial overlap violates the contained-or-disjoint property")
        self._starts[left:right] = [lo]
        self._ends[left:right] = [hi]
        self._arrays = None

    def _view(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(starts, ends, prefix) arrays; prefix[i] is the erased length
        of the intervals before i (cached until the next mark)."""
        if self._arrays is None:
            starts = np.asarray(self._starts, dtype=np.int64)
            ends = np.asarray(self._ends, dtype=np.int64)
            prefix = np.concatenate(
                ([0], np.cumsum(ends - starts, dtype=np.int64)))
            self._arrays = (starts, ends, prefix)
        return self._arrays

    def erased_count(self, lo: int, hi: int) -> int:
        """Erased ordinals within [lo, hi): the erased length below `hi`
        minus the erased length below `lo`, each one binary search."""
        self._check(lo, hi)
        starts, ends, prefix = self._view()

        def below(point: int) -> int:
            i = int(np.searchsorted(starts, point, side="right")) - 1
            if i < 0:
                return 0
            return int(prefix[i]) + min(point, int(ends[i])) - int(starts[i])

        return below(hi) - below(lo)

    def free_mask(self, ordinals: np.ndarray) -> np.ndarray:
        """Boolean mask of *non*-erased entries for an ordinal array."""
        ordinals = np.asarray(ordinals, dtype=np.int64)
        if not self._starts:
            return np.ones(len(ordinals), dtype=bool)
        starts, ends, _prefix = self._view()
        idx = np.searchsorted(starts, ordinals, side="right") - 1
        erased = (idx >= 0) & (ordinals < ends[np.maximum(idx, 0)])
        return ~erased

    @property
    def intervals(self) -> List[Tuple[int, int]]:
        return list(zip(self._starts, self._ends))
