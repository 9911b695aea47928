"""Tests for join planning (`repro.planner`)."""

import numpy as np
import pytest

from repro.algorithms.base import ExecutionStats
from repro.planner.plans import (DYNAMIC, INDEX, MERGE, JoinPlanner,
                                 index_cost, index_intersect, merge_cost,
                                 merge_intersect)


def arr(*values):
    return np.asarray(values, dtype=np.int64)


class TestIntersections:
    def test_merge_basic(self):
        out = merge_intersect(arr(1, 3, 5, 7), arr(3, 4, 7, 9))
        assert list(out) == [3, 7]

    def test_index_basic(self):
        out = index_intersect(arr(3, 7), arr(1, 3, 5, 7, 9))
        assert list(out) == [3, 7]

    def test_empty_inputs(self):
        empty = arr()
        assert len(merge_intersect(empty, arr(1, 2))) == 0
        assert len(index_intersect(empty, arr(1, 2))) == 0
        assert len(index_intersect(arr(1, 2), empty)) == 0

    def test_agree_on_random_sets(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = np.unique(rng.integers(0, 200, size=50))
            b = np.unique(rng.integers(0, 200, size=80))
            assert list(merge_intersect(a, b)) == list(index_intersect(a, b))

    def test_stats_updated(self):
        stats = ExecutionStats()
        merge_intersect(arr(1, 2), arr(2, 3), stats)
        index_intersect(arr(2), arr(2, 3), stats)
        assert stats.merge_joins == 1
        assert stats.index_joins == 1
        assert stats.tuples_scanned == 4
        assert stats.lookups == 1


class TestPlanner:
    def test_forced_policies(self):
        assert JoinPlanner(MERGE).choose(1, 10 ** 6) == MERGE
        assert JoinPlanner(INDEX).choose(10 ** 6, 10 ** 6) == INDEX

    def test_dynamic_picks_index_for_tiny_probe(self):
        assert JoinPlanner(DYNAMIC).choose(3, 10 ** 6) == INDEX

    def test_dynamic_picks_merge_for_comparable_sides(self):
        assert JoinPlanner(DYNAMIC).choose(10 ** 5, 2 * 10 ** 5) == MERGE

    def test_choose_agrees_with_the_cost_model(self):
        planner = JoinPlanner()
        cost = {MERGE: merge_cost, INDEX: index_cost}
        for probe, target in ((1, 10), (5, 100), (50, 100), (100, 100),
                              (3, 1_000_000), (1000, 1024)):
            chosen = planner.choose(probe, target)
            assert cost[chosen](probe, target) == min(
                f(probe, target) for f in cost.values())

    def test_unknown_policy_raises(self):
        with pytest.raises(ValueError):
            JoinPlanner("nope")

    def test_intersect_probes_smaller_side(self):
        stats = ExecutionStats()
        JoinPlanner(INDEX).intersect(arr(*range(100)), arr(5), stats)
        assert stats.lookups == 1  # the single-element side probes

    def test_intersect_all_left_deep(self):
        stats = ExecutionStats()
        out = JoinPlanner(DYNAMIC).intersect_all(
            [arr(*range(0, 100, 2)), arr(4, 8, 100), arr(0, 4, 8, 12)],
            stats, level=3)
        assert list(out) == [4, 8]
        assert stats.joins == 2
        assert all(level == 3 for level, _ in stats.per_level_plan)

    def test_intersect_all_short_circuits_on_empty(self):
        stats = ExecutionStats()
        out = JoinPlanner(DYNAMIC).intersect_all(
            [arr(1), arr(2), arr(*range(1000))], stats)
        assert len(out) == 0
        assert stats.joins == 1  # the third join never runs


class TestDecidesOnce:
    """`choose` runs once per pairwise intersection: `intersect` decides,
    notes the choice in ``per_level_plan`` and runs it."""

    COLUMNS = [arr(*range(0, 300, 2)), arr(*range(0, 300, 3)),
               arr(*range(0, 300, 5))]

    def test_join_planner_one_choose_per_pairwise_join(self):
        class Counting(JoinPlanner):
            chosen = 0

            def choose(self, probe_size, target_size):
                self.chosen += 1
                return super().choose(probe_size, target_size)

        planner = Counting()
        stats = ExecutionStats()
        out = planner.intersect_all(self.COLUMNS, stats, level=4)
        assert list(out) == list(range(0, 300, 30))
        assert planner.chosen == stats.joins == 2   # 3 terms, 2 joins
        assert stats.per_level_plan == [(4, MERGE), (4, INDEX)]
        assert (stats.merge_joins, stats.index_joins) == (1, 1)
