"""Tests for the plan-quality auditor (`repro.obs.audit`).

EXPLAIN ANALYZE for the section III-C optimizer: per-level predicted
vs. actual cardinality, q-error, plan regret, shadow execution, and
the deliberate-misprediction scenarios (correlated keywords under the
pure containment estimate; forced join policies) the auditor must
flag.
"""

import json

import numpy as np
import pytest

from repro import XMLDatabase
from repro.obs.audit import (AuditingJoinPlanner, PlanAudit, PlanAuditor,
                             audit_query, q_error)
from repro.planner.cardinality import CardinalityEstimator
from repro.planner.plans import (INDEX, MERGE, JoinPlanner, alternative_of,
                                 index_cost, merge_cost, modeled_cost)


def _fresh_db(source_db, **kwargs):
    return XMLDatabase.from_xml_text(source_db.tree.to_xml(), **kwargs)


# ---------------------------------------------------------------------------
# the shared cost model
# ---------------------------------------------------------------------------

class TestCostModel:
    def test_modeled_cost_matches_components(self):
        assert modeled_cost(MERGE, 10, 100) == merge_cost(10, 100) == 110.0
        assert modeled_cost(INDEX, 10, 100) == index_cost(10, 100)
        assert index_cost(10, 100) == pytest.approx(10 * np.log2(100))

    def test_choose_agrees_with_the_cost_model(self):
        planner = JoinPlanner()
        for probe, target in ((1, 10), (5, 100), (50, 100), (100, 100),
                              (3, 1_000_000), (1000, 1024)):
            chosen = planner.choose(probe, target)
            assert modeled_cost(chosen, probe, target) <= modeled_cost(
                alternative_of(chosen), probe, target)

    def test_alternative_is_an_involution(self):
        assert alternative_of(MERGE) == INDEX
        assert alternative_of(INDEX) == MERGE
        with pytest.raises(ValueError):
            alternative_of("dynamic")
        with pytest.raises(ValueError):
            modeled_cost("dynamic", 1, 1)

    def test_q_error_floors_and_symmetry(self):
        assert q_error(10.0, 10) == 1.0
        assert q_error(5.0, 50) == pytest.approx(10.0)
        assert q_error(50.0, 5) == pytest.approx(10.0)
        # Sub-1 values floor at 1: a 0.4 estimate of an empty level is
        # perfect, not a division blow-up.
        assert q_error(0.4, 0) == 1.0
        assert q_error(0.0, 3) == 3.0


class TestCardinalityDetail:
    def test_estimate_equals_combined(self):
        est = CardinalityEstimator(seed=1)
        columns = [np.arange(0, 400, 2, dtype=np.int64),
                   np.arange(0, 400, 3, dtype=np.int64)]
        detail = est.estimate_detail(columns)
        assert est.estimate(columns) >= 0
        assert detail.combined == max(detail.containment, detail.sampled) \
            if detail.sampled > 0 else detail.containment

    def test_sample_size_zero_disables_refinement(self):
        est = CardinalityEstimator(sample_size=0)
        columns = [np.arange(100, dtype=np.int64),
                   np.arange(100, dtype=np.int64)]
        detail = est.estimate_detail(columns)
        assert detail.sampled == 0.0
        assert detail.combined == detail.containment
        # Identical columns: containment underestimates 100 badly.
        assert detail.containment < 100


# ---------------------------------------------------------------------------
# AuditingJoinPlanner: measured decisions, unchanged results
# ---------------------------------------------------------------------------

class TestAuditingPlanner:
    def test_results_identical_to_plain_planner(self, small_db):
        plain = small_db.search("xml data", use_cache=False)
        audited, stats = small_db.search("xml data", with_stats=True,
                                         audit=True)
        assert [r.node.dewey for r in audited] == \
            [r.node.dewey for r in plain]
        assert isinstance(stats.audit, PlanAudit)

    def test_records_every_pairwise_join(self):
        planner = AuditingJoinPlanner()
        a = np.arange(0, 100, 2, dtype=np.int64)
        b = np.arange(0, 100, 3, dtype=np.int64)
        c = np.arange(0, 100, 5, dtype=np.int64)
        result = planner.intersect_all([a, b, c], level=4)
        assert len(planner.records) == 2  # k columns -> k-1 joins
        for obs in planner.records:
            assert obs.level == 4
            assert obs.algorithm in (MERGE, INDEX)
            assert obs.actual_ms >= 0.0
            assert obs.predicted_merge_cost > 0
            assert obs.predicted_index_cost > 0
        assert set(result) == set(a) & set(b) & set(c)

    def test_wraps_forced_policies(self):
        forced = AuditingJoinPlanner(JoinPlanner("merge"))
        assert forced.policy == "merge"
        a = np.arange(3, dtype=np.int64)
        b = np.arange(10_000, dtype=np.int64)
        forced.intersect(a, b)
        assert forced.records[-1].algorithm == MERGE
        # The dynamic model would have probed here -- that is the
        # "plan" misprediction the audit flags.
        obs = forced.records[-1]
        assert obs.chosen_cost > obs.alternative_cost

    def test_shadow_all_times_the_alternative(self):
        planner = AuditingJoinPlanner(shadow="all")
        a = np.arange(0, 1000, 2, dtype=np.int64)
        b = np.arange(0, 1000, 3, dtype=np.int64)
        planner.intersect_all([a, b], level=1)
        assert all(obs.shadow_ms is not None and obs.shadow_ms >= 0.0
                   for obs in planner.records)

    def test_shadow_off_never_runs_the_alternative(self):
        planner = AuditingJoinPlanner()
        a = np.arange(10, dtype=np.int64)
        b = np.arange(20, dtype=np.int64)
        planner.intersect_all([a, b], level=1)
        assert all(obs.shadow_ms is None for obs in planner.records)

    def test_shadow_sampled_is_seeded_deterministic(self):
        def run(seed):
            planner = AuditingJoinPlanner(shadow="sampled",
                                          shadow_rate=0.5, seed=seed)
            a = np.arange(50, dtype=np.int64)
            b = np.arange(50, dtype=np.int64)
            for level in range(8, 0, -1):
                planner.intersect_all([a, b], level=level)
            return [obs.shadow_ms is not None for obs in planner.records]

        assert run(3) == run(3)
        # Rate 0.5 over 8 levels: both outcomes should appear.
        assert len(set(run(3))) == 2

    def test_rejects_unknown_shadow_mode(self):
        with pytest.raises(ValueError):
            AuditingJoinPlanner(shadow="sometimes")

    def test_shadow_work_does_not_touch_stats(self, small_db):
        _, plain_stats = small_db.search("xml data", use_cache=False,
                                         with_stats=True)
        _, audited_stats = small_db.search("xml data", with_stats=True,
                                           audit=True, shadow="all")
        for field in ("joins", "merge_joins", "index_joins",
                      "tuples_scanned", "lookups"):
            assert getattr(audited_stats, field) == \
                getattr(plain_stats, field), field


# ---------------------------------------------------------------------------
# PlanAudit assembly
# ---------------------------------------------------------------------------

class TestPlanAudit:
    def test_audit_query_levels_match_execution(self, dblp_db):
        audit = audit_query(dblp_db.columnar_index, ["alpha", "beta"])
        assert audit.levels, "expected at least one joined level"
        for level in audit.levels:
            assert level.predicted >= 0.0
            assert level.actual >= 0
            assert level.q_error >= 1.0
            assert level.level_ms >= 0.0
            assert level.join_ms >= 0.0
            assert level.plan  # at least one pairwise join per level
        # On the planted DBLP corpus the sampled estimator is accurate.
        assert audit.max_q_error < 4.0
        assert not audit.mispredicted_levels
        assert "plan OK" in audit.verdict()

    def test_plan_matches_execution_stats(self, dblp_db):
        auditor = PlanAuditor()
        from repro.algorithms.join_based import JoinBasedSearch

        engine = JoinBasedSearch(dblp_db.columnar_index, auditor.planner)
        _, stats = engine.evaluate(["alpha", "beta"], "elca",
                                   with_scores=False,
                                   observer=auditor.observer)
        audit = auditor.finish(["alpha", "beta"], "elca")
        recorded = [(lvl.level, alg) for lvl in audit.levels
                    for alg in lvl.plan]
        assert recorded == stats.per_level_plan

    def test_as_dict_round_trips_through_json(self, dblp_db):
        audit = audit_query(dblp_db.columnar_index, ["alpha", "beta"],
                            shadow="all")
        payload = json.loads(audit.to_json())
        assert payload["terms"] == ["alpha", "beta"]
        assert payload["verdict"] == audit.verdict()
        assert len(payload["levels"]) == len(audit.levels)
        for row, level in zip(payload["levels"], audit.levels):
            assert row["actual"] == level.actual
            assert row["plan"] == level.plan
            assert len(row["joins"]) == len(level.joins)

    def test_format_is_printable(self, dblp_db):
        audit = audit_query(dblp_db.columnar_index, ["alpha", "beta"])
        text = audit.format()
        assert "q_err" in text and "regret" in text
        assert text.count("level ") == len(audit.levels)


# ---------------------------------------------------------------------------
# deliberate mispredictions the auditor must flag
# ---------------------------------------------------------------------------

class TestMispredictionFlags:
    def test_correlated_terms_break_the_containment_estimate(
            self, corpus_db):
        """The acceptance scenario: 'cx' and 'cy' co-occur in 90% of
        their entities, so the independence assumption underestimates
        the intersection wildly once the sampled probe is disabled --
        the auditor must flag at least one level for cardinality."""
        audit = audit_query(
            corpus_db.columnar_index, ["cx", "cy"],
            estimator=CardinalityEstimator(sample_size=0))
        flagged = [lvl for lvl in audit.mispredicted_levels
                   if "cardinality" in lvl.flags]
        assert flagged, audit.format()
        worst = max(flagged, key=lambda lvl: lvl.q_error)
        assert worst.q_error > 4.0
        assert worst.containment < worst.actual  # underestimate
        assert "cardinality" in audit.verdict()

    def test_sampling_repairs_the_correlated_estimate(self, corpus_db):
        """Same query with the probe refinement on: no cardinality
        flag -- the paper's sampled estimator earns its keep."""
        audit = audit_query(corpus_db.columnar_index, ["cx", "cy"])
        assert not any("cardinality" in lvl.flags
                       for lvl in audit.levels), audit.format()

    def test_forced_policy_is_flagged_as_plan_misprediction(
            self, corpus_db):
        """Forcing index joins where merge is model-optimal must show
        up as 'plan' flags; the dynamic policy on the same query is
        model-optimal by construction and never flags."""
        forced = audit_query(corpus_db.columnar_index, ["gamma", "beta"],
                             planner=JoinPlanner("index"))
        dynamic = audit_query(corpus_db.columnar_index, ["gamma", "beta"])
        assert any("plan" in lvl.flags for lvl in forced.levels), \
            forced.format()
        assert not any("plan" in lvl.flags for lvl in dynamic.levels)

    def test_search_audit_flags_ride_on_stats(self, corpus_db):
        db = _fresh_db(corpus_db)
        _, stats = db.search("cx cy", with_stats=True, audit=True)
        assert isinstance(stats.audit, PlanAudit)
        assert stats.audit.terms == ("cx", "cy")

    def test_audit_requires_the_join_algorithm(self, small_db):
        with pytest.raises(ValueError, match="join"):
            small_db.search("xml data", algorithm="stack", audit=True)


# ---------------------------------------------------------------------------
# explain(analyze=True)
# ---------------------------------------------------------------------------

class TestExplainAnalyze:
    def test_plan_carries_the_audit(self, dblp_db):
        plan = dblp_db.explain("alpha beta", analyze=True)
        assert isinstance(plan.audit, PlanAudit)
        assert plan.stats.audit is plan.audit
        assert len(plan.audit.levels) == len(plan.levels)
        for level_plan, level_audit in zip(plan.levels, plan.audit.levels):
            assert level_plan.level == level_audit.level
            assert level_plan.joined == level_audit.actual
            assert list(level_plan.join_algorithms) == level_audit.plan

    def test_analyze_off_leaves_audit_none(self, dblp_db):
        plan = dblp_db.explain("alpha beta")
        assert plan.audit is None

    def test_format_includes_the_verdict(self, dblp_db):
        plan = dblp_db.explain("alpha beta", analyze=True)
        text = plan.format()
        assert "analyze:" in text
        assert plan.audit.verdict() in text

    def test_xmark_workload_audits_cleanly(self, xmark_db):
        plan = xmark_db.explain("alpha beta", analyze=True, shadow="all")
        assert plan.audit.levels
        assert all(lvl.shadow_ms is not None for lvl in plan.audit.levels
                   if lvl.joins)

    def test_estimator_override_reaches_the_audit(self, corpus_db):
        plan = corpus_db.explain(
            "cx cy", analyze=True,
            estimator=CardinalityEstimator(sample_size=0))
        assert any("cardinality" in lvl.flags
                   for lvl in plan.audit.levels)
