"""Join planning: merge vs. index join, static and dynamic (section III-C).

A level of the join-based algorithm intersects k sorted distinct-value
arrays.  The planner fixes the *order* (left-deep, shortest list first)
and picks the *algorithm* per pairwise join:

* ``merge``   -- cost ~ |A| + |B|; best when the sides are comparable.
* ``index``   -- cost ~ |A| * log2 |B|; best when one side is tiny
  (probes the larger side's sorted column / sparse index).
* ``dynamic`` -- decide per join from the sizes actually observed at run
  time, the paper's context-aware optimization: keyword correlation
  differs per level, so the same query may merge at one level and probe
  at another.
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np

from ..algorithms.base import ExecutionStats

MERGE = "merge"
INDEX = "index"
DYNAMIC = "dynamic"
POLICIES = (MERGE, INDEX, DYNAMIC)


def merge_cost(probe_size: int, target_size: int) -> float:
    """Modeled cost of a merge intersection: scan both inputs."""
    return float(probe_size + target_size)


def index_cost(probe_size: int, target_size: int) -> float:
    """Modeled cost of an index intersection: probe the larger side."""
    return probe_size * max(1.0, math.log2(max(target_size, 1)))


def merge_intersect(a: np.ndarray, b: np.ndarray,
                    stats: Optional[ExecutionStats] = None) -> np.ndarray:
    """Sorted-set intersection by merging; scans both inputs."""
    if stats is not None:
        stats.merge_joins += 1
        stats.tuples_scanned += len(a) + len(b)
    return np.intersect1d(a, b, assume_unique=True)


def index_intersect(probe: np.ndarray, target: np.ndarray,
                    stats: Optional[ExecutionStats] = None) -> np.ndarray:
    """Sorted-set intersection by probing `target` for each probe value."""
    if stats is not None:
        stats.index_joins += 1
        stats.lookups += len(probe)
    if len(probe) == 0 or len(target) == 0:
        return np.empty(0, dtype=np.int64)
    pos = np.searchsorted(target, probe)
    pos = np.minimum(pos, len(target) - 1)
    hit = target[pos] == probe
    return probe[hit]


class JoinPlanner:
    """Chooses the join algorithm for each pairwise intersection.

    ``policy`` is one of ``merge``, ``index`` (forced plans, used by the
    ablation in the paper's section V-B discussion) or ``dynamic``.
    """

    def __init__(self, policy: str = DYNAMIC):
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}; one of {POLICIES}")
        self.policy = policy

    def choose(self, probe_size: int, target_size: int) -> str:
        if self.policy != DYNAMIC:
            return self.policy
        if probe_size == 0 or target_size == 0:
            return INDEX
        if index_cost(probe_size, target_size) < \
                merge_cost(probe_size, target_size):
            return INDEX
        return MERGE

    def intersect(self, a: np.ndarray, b: np.ndarray,
                  stats: Optional[ExecutionStats] = None,
                  level: Optional[int] = None) -> np.ndarray:
        """Intersect with the chosen algorithm; smaller side probes.

        The one place a pairwise join is decided: the choice is noted in
        ``stats.per_level_plan`` (when ``level`` is given) and run, never
        taken again.
        """
        probe, target = (a, b) if len(a) <= len(b) else (b, a)
        algorithm = self.choose(len(probe), len(target))
        if stats is not None:
            stats.joins += 1
            if level is not None:
                stats.per_level_plan.append((level, algorithm))
        if algorithm == INDEX:
            return index_intersect(probe, target, stats)
        return merge_intersect(probe, target, stats)

    def intersect_all(self, columns: List[np.ndarray],
                      stats: Optional[ExecutionStats] = None,
                      level: Optional[int] = None) -> np.ndarray:
        """Left-deep k-way intersection, shortest columns first.

        The intermediate result can only shrink (set semantics), so after
        the first join the planner effectively always has a small probe
        side when the keywords are weakly correlated -- the behaviour
        section III-C describes.
        """
        ordered = sorted(columns, key=len)
        result = ordered[0]
        for column in ordered[1:]:
            if len(result) == 0:
                break
            result = self.intersect(result, column, stats, level)
        return result
