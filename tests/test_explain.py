"""Tests for query plan inspection (`repro.algorithms.explain`)."""

import pytest

from repro.algorithms.explain import explain
from repro.obs import Tracer, spans_per_level_plan
from repro.planner.plans import JoinPlanner


class TestQueryPlan:
    def test_levels_descend(self, small_db):
        plan = explain(small_db.columnar_index, ["xml", "data"])
        levels = [lp.level for lp in plan.levels]
        assert levels == sorted(levels, reverse=True)
        assert levels[-1] == 1

    def test_execution_order_shortest_first(self, corpus_db):
        plan = explain(corpus_db.columnar_index, ["gamma", "rare"])
        assert plan.execution_order[0] == "rare"  # df 4 < df 120

    def test_result_total_matches_search(self, small_db):
        plan = explain(small_db.columnar_index, ["xml", "data"])
        expected = small_db.search("xml data")
        assert plan.n_results == len(expected)
        assert sum(lp.emitted for lp in plan.levels) == len(expected)

    def test_column_sizes_reported(self, small_db):
        plan = explain(small_db.columnar_index, ["xml", "data"])
        for lp in plan.levels:
            assert len(lp.column_sizes) == 2
            assert all(d <= c for c, d in zip(lp.column_sizes,
                                              lp.distinct_sizes))

    def test_join_algorithms_per_level(self, small_db):
        plan = explain(small_db.columnar_index, ["xml", "data"])
        for lp in plan.levels:
            # k=2 keywords -> one pairwise join per processed level.
            assert len(lp.join_algorithms) <= 1
            assert all(a in ("merge", "index")
                       for a in lp.join_algorithms)

    def test_forced_planner_respected(self, small_db):
        plan = explain(small_db.columnar_index, ["xml", "data"],
                       planner=JoinPlanner("merge"))
        merges, probes = plan.join_mix
        assert probes == 0
        assert merges > 0

    def test_format_is_readable(self, small_db):
        plan = explain(small_db.columnar_index, ["xml", "data"], "slca")
        text = plan.format()
        assert "query: xml data [slca]" in text
        assert "level" in text
        assert "totals:" in text

    def test_stats_attached(self, small_db):
        plan = explain(small_db.columnar_index, ["xml", "data"])
        assert plan.stats is not None
        assert plan.stats.levels_processed == len(plan.levels)

    def test_invalid_semantics(self, small_db):
        with pytest.raises(ValueError):
            explain(small_db.columnar_index, ["xml"], "nope")


class TestTracedPlan:
    def test_no_trace_by_default(self, small_db):
        plan = explain(small_db.columnar_index, ["xml", "data"])
        assert plan.trace is None
        assert "trace:" not in plan.format()

    def test_trace_attached_with_tracer(self, small_db):
        tracer = Tracer()
        plan = explain(small_db.columnar_index, ["xml", "data"],
                       tracer=tracer)
        assert plan.trace is not None
        assert plan.trace.name == "query"
        assert plan.trace.tags["op"] == "explain"
        text = plan.format()
        assert "trace:" in text
        assert "postings_fetch" in text

    def test_trace_plan_tags_match_stats(self, small_db):
        plan = explain(small_db.columnar_index, ["xml", "data"],
                       tracer=Tracer())
        assert plan.stats.per_level_plan
        assert spans_per_level_plan(plan.trace) == plan.stats.per_level_plan

    def test_trace_agrees_with_level_plans(self, small_db):
        """The span tags and the `LevelPlan.join_algorithms` rows are two
        views of the same decisions."""
        plan = explain(small_db.columnar_index, ["xml", "data"],
                       tracer=Tracer())
        from_spans = spans_per_level_plan(plan.trace)
        for lp in plan.levels:
            assert tuple(a for lvl, a in from_spans
                         if lvl == lp.level) == lp.join_algorithms


class TestAPIAndCLI:
    def test_database_explain(self, small_db):
        plan = small_db.explain("xml data")
        assert plan.terms == ("xml", "data")

    def test_database_explain_trace_flag(self, small_db):
        plan = small_db.explain("xml data", trace=True)
        assert plan.trace is not None
        assert spans_per_level_plan(plan.trace) == plan.stats.per_level_plan

    def test_cli_explain_trace(self, tmp_path, capsys):
        from repro.cli import main
        from tests.conftest import SMALL_XML

        path = tmp_path / "doc.xml"
        path.write_text(SMALL_XML, encoding="utf-8")
        assert main(["explain", str(path), "xml data", "--trace"]) == 0
        out = capsys.readouterr().out
        assert "trace:" in out

    def test_cli_explain(self, tmp_path, capsys):
        from repro.cli import main
        from tests.conftest import SMALL_XML

        path = tmp_path / "doc.xml"
        path.write_text(SMALL_XML, encoding="utf-8")
        assert main(["explain", str(path), "xml data"]) == 0
        out = capsys.readouterr().out
        assert "execution order" in out

    def test_dynamic_plan_mixes_on_skewed_query(self, corpus_db):
        """A rare+frequent query should trigger index joins somewhere."""
        plan = corpus_db.explain(["rare", "gamma"])
        merges, probes = plan.join_mix
        assert probes >= 1
