"""Tests for join planning and cardinality estimation (`repro.planner`)."""

import numpy as np
import pytest

from repro.algorithms.base import ExecutionStats
from repro.planner.cardinality import (CardinalityEstimator,
                                       containment_estimate,
                                       sampled_estimate)
from repro.planner.plans import (DYNAMIC, INDEX, MERGE, JoinPlanner,
                                 index_intersect, merge_intersect)


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
    notes the choice in ``per_level_plan`` and hands it to `execute`."""

    COLUMNS = [arr(*range(0, 300, 2)), arr(*range(0, 300, 3)),
               arr(*range(0, 300, 5))]

    @staticmethod
    def _counting(base):
        class Counting(base):
            chosen = 0

            def choose(self, probe_size, target_size):
                self.chosen += 1
                return super().choose(probe_size, target_size)

        return Counting()

    def test_join_planner_one_choose_per_pairwise_join(self):
        planner = self._counting(JoinPlanner)
        stats = ExecutionStats()
        out = planner.intersect_all(self.COLUMNS, stats, level=4)
        assert list(out) == list(range(0, 300, 30))
        assert planner.chosen == stats.joins == 2   # 3 terms, 2 joins
        assert stats.per_level_plan == [(4, MERGE), (4, INDEX)]
        assert (stats.merge_joins, stats.index_joins) == (1, 1)

    def test_auditing_planner_one_choose_per_pairwise_join(self):
        from repro.obs.audit import AuditingJoinPlanner

        planner = self._counting(AuditingJoinPlanner)
        stats = ExecutionStats()
        planner.intersect_all(self.COLUMNS, stats, level=4)
        assert planner.chosen == stats.joins == 2
        assert stats.per_level_plan == [(4, MERGE), (4, INDEX)]
        # The audit record carries the decision it was handed.
        assert [(obs.level, obs.algorithm) for obs in planner.records] \
            == stats.per_level_plan
        assert [(obs.probe_size, obs.target_size, obs.output_size)
                for obs in planner.records] == [(60, 100, 20), (20, 150, 10)]


class TestCardinality:
    def test_containment_formula(self):
        # d1=10, d2=20 over domain 100 -> 100 * 0.1 * 0.2 = 2.
        assert containment_estimate([10, 20], 100) == pytest.approx(2.0)

    def test_containment_empty(self):
        assert containment_estimate([], 100) == 0.0
        assert containment_estimate([10], 0) == 0.0

    def test_sampled_exact_on_small_columns(self):
        a = arr(1, 2, 3, 4, 5)
        b = arr(2, 4, 6)
        assert sampled_estimate([a, b], sample_size=64) == 2

    def test_sampled_zero_when_column_empty(self):
        assert sampled_estimate([arr(), arr(1, 2)]) == 0.0

    def test_estimator_on_disjoint_columns(self):
        est = CardinalityEstimator()
        a = arr(*range(0, 1000, 2))
        b = arr(*range(1, 1000, 2))
        assert est.estimate([a, b]) < 300  # far below min(|a|, |b|)

    def test_estimator_on_identical_columns(self):
        est = CardinalityEstimator()
        a = arr(*range(500))
        value = est.estimate([a, a.copy()])
        assert value == pytest.approx(500, rel=0.2)

    def test_estimator_deterministic(self):
        a = arr(*range(0, 3000, 3))
        b = arr(*range(0, 3000, 7))
        assert CardinalityEstimator(seed=1).estimate([a, b]) == \
            CardinalityEstimator(seed=1).estimate([a, b])
