"""Tests for the observability subsystem (`repro.obs`).

Covers the span tracer (unit + integration with the query pipeline),
the metrics registry the serve daemon publishes into, `ExecutionStats`
merging, the `search_batch` summary, ``repro trace`` and the overhead
guards (tracing off, on).
"""

import json
from collections.abc import Sequence

import pytest

from repro import XMLDatabase
from repro.algorithms.base import ExecutionStats
from repro.algorithms.join_based import JoinBasedSearch
from repro.algorithms.topk_keyword import TopKKeywordSearch
from repro.obs import (NULL_TRACER, Counter, Gauge, Histogram,
                       MetricsRegistry, NullTracer, Tracer, render_trace,
                       spans_per_level_plan, trace_to_jsonl)
from repro.obs.tracing import NULL_SPAN, ROOT_CAPACITY
from tests.conftest import on_threads


# ---------------------------------------------------------------------------
# tracer unit tests
# ---------------------------------------------------------------------------

class TestTracer:
    def test_nesting_builds_a_tree(self):
        tracer = Tracer()
        with tracer.span("query", op="t") as root:
            with tracer.span("parse"):
                pass
            with tracer.span("join", level=2) as join:
                with tracer.span("probe"):
                    pass
        assert tracer.last_root() is root
        assert [s.name for s in root.walk()] == [
            "query", "parse", "join", "probe"]
        assert root.children[1] is join
        assert join.tags == {"level": 2}

    def test_tag_is_chainable_and_overwrites(self):
        tracer = Tracer()
        with tracer.span("s", a=1) as span:
            span.tag(a=2).tag(b=3)
        assert span.tags == {"a": 2, "b": 3}

    def test_durations_and_find(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
            with tracer.span("inner"):
                pass
        root = tracer.last_root()
        assert root.end is not None
        assert root.duration_ms >= 0
        assert len(root.find("inner")) == 2
        assert all(s.duration_ms <= root.duration_ms + 1e-6
                   for s in root.walk())

    def test_capacity_bounds_roots(self):
        tracer = Tracer()
        for i in range(ROOT_CAPACITY + 2):
            with tracer.span("q", i=i):
                pass
        roots = tracer.roots()
        assert len(roots) == ROOT_CAPACITY
        assert [r.tags["i"] for r in roots[:2]] == [2, 3]
        assert roots[-1].tags["i"] == ROOT_CAPACITY + 1

    def test_reset_clears_roots(self):
        tracer = Tracer()
        with tracer.span("q"):
            pass
        tracer.reset()
        assert tracer.roots() == []
        assert tracer.last_root() is None

    def test_dangling_children_are_closed(self):
        """An abandoned generator leaves its span open; finishing an
        ancestor must close the dangling descendants."""
        tracer = Tracer()
        root = tracer.span("root")
        tracer.span("dangling")  # never exited
        root.__exit__(None, None, None)
        tree = tracer.last_root()
        assert tree is root
        assert tree.children[0].name == "dangling"
        assert tree.children[0].end is not None

    def test_render_trace(self):
        tracer = Tracer()
        with tracer.span("query", op="search"):
            with tracer.span("join", level=3, plan=["merge"]):
                pass
        text = render_trace(tracer.last_root())
        assert "query" in text
        assert "join" in text
        assert "level=3" in text
        assert "100.0%" in text
        # min_ms hides fast children but never the root.
        assert "join" not in render_trace(tracer.last_root(),
                                          min_ms=10_000.0)

    def test_jsonl_export_round_trips(self):
        tracer = Tracer()
        with tracer.span("query", terms=["xml", "data"], obj=object()):
            with tracer.span("parse"):
                pass
        lines = trace_to_jsonl(tracer.roots()).strip().splitlines()
        spans = [json.loads(line) for line in lines]
        assert [s["name"] for s in spans] == ["query", "parse"]
        assert spans[0]["parent_id"] is None
        assert spans[1]["parent_id"] == spans[0]["id"]
        assert spans[0]["tags"]["terms"] == ["xml", "data"]
        # Non-JSON tag values are stringified, never a crash.
        assert isinstance(spans[0]["tags"]["obj"], str)
        assert all(s["duration_ms"] >= 0 for s in spans)

    def test_to_dict_nested(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        tree = tracer.last_root().to_dict()
        assert tree["name"] == "a"
        assert tree["children"][0]["name"] == "b"
        assert tree["start_ms"] == 0.0


class TestNullTracer:
    def test_is_disabled_and_shared(self):
        tracer = NullTracer()
        assert tracer.enabled is False
        assert tracer.span("anything", level=1) is NULL_SPAN
        with tracer.span("x") as span:
            assert span.tag(a=1) is span
        assert tracer.roots() == []
        assert tracer.last_root() is None
        tracer.reset()  # no-op, no crash


# ---------------------------------------------------------------------------
# metrics registry
# ---------------------------------------------------------------------------

class TestMetrics:
    def test_counter_monotonic(self):
        counter = Counter()
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_set_inc_dec(self):
        gauge = Gauge()
        gauge.set(5)
        gauge.inc(2)
        gauge.dec()
        assert gauge.value == 6.0

    def test_histogram_percentiles(self):
        """Percentiles are read off the cumulative buckets: 1..100 ms
        puts the p50 in the 50 ms bucket and the p95 / p99 in the
        100 ms one."""
        hist = Histogram()
        for value in range(1, 101):  # 1..100 ms
            hist.observe(float(value))
        data = hist.as_dict()
        assert data["count"] == 100
        assert data["sum"] == pytest.approx(5050.0)
        assert data["mean"] == pytest.approx(50.5)
        assert data["buckets"]["10"] == 10
        assert data["buckets"]["50"] == 50
        # Cumulative buckets: everything <= 100 is inside the 100 bound.
        assert data["buckets"]["100"] == 100
        assert data["buckets"]["+Inf"] == 100
        assert data["buckets"]["0.01"] == 0

    def test_registry_labels_key_instruments(self):
        registry = MetricsRegistry()
        search = registry.counter("q_total", {"op": "search"})
        topk = registry.counter("q_total", {"op": "topk"})
        assert search is not topk
        assert registry.counter("q_total", {"op": "search"}) is search
        search.inc()
        assert registry.counter("q_total", {"op": "search"}).value == 1.0
        assert registry.counter("q_total", {"op": "topk"}).value == 0.0
        text = registry.render_prometheus()
        assert 'q_total{op="search"} 1' in text
        assert 'q_total{op="topk"} 0' in text

    def test_snapshot_shape(self):
        """A histogram's dict snapshot, which the exposition renders:
        the exemplars key appears once an observation carried one."""
        hist = Histogram(buckets=(1.0, 10.0))
        hist.observe(0.5)
        data = hist.as_dict()
        assert set(data) == {"count", "sum", "mean", "buckets"}
        assert data["buckets"] == {"1": 1, "10": 1, "+Inf": 1}
        hist.observe(5.0, exemplar="abc")
        assert hist.as_dict()["exemplars"] == {
            "10": {"value": 5.0, "trace_id": "abc"}}

    def test_render_prometheus(self):
        registry = MetricsRegistry()
        registry.counter("requests_total", {"op": "search"}).inc(3)
        registry.gauge("depth").set(2)
        registry.histogram("latency_ms").observe(0.2)
        text = registry.render_prometheus()
        assert "# TYPE requests_total counter" in text
        assert 'requests_total{op="search"} 3' in text
        assert "# TYPE depth gauge" in text
        assert 'latency_ms_bucket{le="+Inf"} 1' in text
        assert "latency_ms_count 1" in text


# ---------------------------------------------------------------------------
# ExecutionStats merging
# ---------------------------------------------------------------------------

class TestExecutionStatsMerge:
    def test_merge_adds_counters_and_concatenates_plans(self):
        a = ExecutionStats(joins=2, merge_joins=1, index_joins=1,
                           tuples_scanned=10)
        a.per_level_plan = [(3, "merge")]
        b = ExecutionStats(joins=1, index_joins=1, tuples_scanned=5,
                           lookups=1)
        b.per_level_plan = [(2, "index")]
        a.merge(b)
        assert a.joins == 3
        assert a.tuples_scanned == 15
        assert a.lookups == 1
        assert a.per_level_plan == [(3, "merge"), (2, "index")]

    def test_iadd_and_add(self):
        a = ExecutionStats(joins=1)
        b = ExecutionStats(joins=2)
        a += b
        assert a.joins == 3
        c = ExecutionStats(lookups=1) + ExecutionStats(lookups=2)
        assert c.lookups == 3

    def test_merge_does_not_alias_plan_list(self):
        a, b = ExecutionStats(), ExecutionStats()
        b.per_level_plan = [(1, "merge")]
        a.merge(b)
        b.per_level_plan.append((0, "index"))
        assert a.per_level_plan == [(1, "merge")]


# ---------------------------------------------------------------------------
# pipeline integration: traced queries
# ---------------------------------------------------------------------------

def _fresh_db(source_db, **kwargs):
    """A private copy of a fixture database (fixtures are shared and
    read-only; tests that trace or log need their own)."""
    return XMLDatabase.from_xml_text(source_db.tree.to_xml(), **kwargs)


class TestTracedPipeline:
    def test_search_span_tree_shape(self, small_db):
        tracer = Tracer()
        db = _fresh_db(small_db, tracer=tracer)
        db.search("xml data")
        root = tracer.last_root()
        assert root.name == "query"
        assert root.tags["op"] == "search"
        assert root.tags["terms"] == ["xml", "data"]
        names = [s.name for s in root.walk()]
        assert "parse" in names
        assert "postings_fetch" in names
        assert "join" in names and "score" in names and "erase" in names

    def test_search_plan_tags_match_stats_vectorized(self, small_db):
        tracer = Tracer()
        engine = JoinBasedSearch(small_db.columnar_index, tracer=tracer)
        with tracer.span("query"):
            _results, stats = engine.evaluate(["xml", "data"], "elca")
        assert stats.per_level_plan  # non-trivial query
        assert spans_per_level_plan(tracer.last_root()) == \
            stats.per_level_plan

    def test_topk_plan_tags_match_stats(self, small_db):
        tracer = Tracer()
        engine = TopKKeywordSearch(small_db.columnar_index, tracer=tracer)
        with tracer.span("query"):
            result = engine.search(["xml", "data"], k=2)
        assert result.stats.per_level_plan
        assert spans_per_level_plan(tracer.last_root()) == \
            result.stats.per_level_plan

    def test_topk_termination_span(self, small_db):
        tracer = Tracer()
        db = _fresh_db(small_db, tracer=tracer)
        result = db.search_topk("xml data", k=2)
        root = tracer.last_root()
        term = root.find("topk_termination")
        assert len(term) == 1
        assert term[0].tags["k"] == 2
        assert term[0].tags["emitted"] == len(result)
        assert term[0].tags["terminated_early"] == result.terminated_early

    def test_rank_join_progress_tags(self, small_db):
        tracer = Tracer()
        db = _fresh_db(small_db, tracer=tracer)
        db.search_topk("xml data", k=2, algorithm="topk-join")
        spans = tracer.last_root().find("rank_join")
        assert spans
        for key in ("tuples_retrieved", "completed", "pending", "groups"):
            assert key in spans[0].tags
        assert spans[0].tags["completed"] >= 1  # top level completes

    def test_join_span_cardinality_tags(self, small_db):
        tracer = Tracer()
        db = _fresh_db(small_db, tracer=tracer)
        db.search("xml data")
        joins = tracer.last_root().find("join")
        assert joins
        for span in joins:
            assert span.tags["output"] <= min(span.tags["inputs"])

    def test_repeat_query_evaluates_again(self, small_db):
        """The library keeps no result cache: a repeated query records
        the same evaluation spans as the first, and no lookup span."""
        tracer = Tracer()
        db = _fresh_db(small_db, tracer=tracer)
        db.search("xml data")
        db.search("xml data")
        first, second = tracer.roots()[-2:]
        assert second.find("join")
        assert [s.name for s in first.walk()] == \
            [s.name for s in second.walk()]
        assert not any(root.find("cache_lookup") for root in tracer.roots())


# ---------------------------------------------------------------------------
# search_batch summary
# ---------------------------------------------------------------------------

class TestBatchSummary:
    def test_batch_result_is_still_a_list(self, small_db):
        db = _fresh_db(small_db)
        batch = db.search_batch(["xml data", "keyword search"])
        assert isinstance(batch, list)
        assert batch.n_queries == len(batch) == 2
        # the members are sequences of results (`ResultSet`s)
        assert all(isinstance(entry, Sequence) for entry in batch)

    def test_summary_merges_per_query_stats(self, small_db):
        db = _fresh_db(small_db)
        batch = db.search_batch(["xml data", "xml data"], with_stats=True)
        per_query = [stats for _results, stats in batch]
        assert per_query[0].levels_processed > 0
        assert batch.summary.levels_processed == \
            sum(s.levels_processed for s in per_query)
        assert batch.summary.per_level_plan == \
            per_query[0].per_level_plan + per_query[1].per_level_plan

    def test_latencies_and_elapsed(self, small_db):
        db = _fresh_db(small_db)
        batch = db.search_batch(["xml data", "keyword search"])
        assert len(batch.latencies_ms) == 2
        assert all(ms >= 0 for ms in batch.latencies_ms)
        assert batch.elapsed_ms > 0


# ---------------------------------------------------------------------------
# overhead guard
# ---------------------------------------------------------------------------

class CountingNullTracer(NullTracer):
    """NullTracer that counts `span` calls -- the disabled-tracing cost
    is exactly this many no-op calls."""

    def __init__(self):
        self.calls = 0

    def span(self, name, **tags):
        self.calls += 1
        return NULL_SPAN


class TestOverheadGuard:
    def test_span_count_is_o_levels_not_o_candidates(self, corpus_db):
        """Disabled tracing must cost O(levels) span calls per query,
        never O(candidates): a per-candidate span would blow this
        budget by an order of magnitude."""
        counting = CountingNullTracer()
        db = _fresh_db(corpus_db, tracer=counting)
        db.search("gamma beta")  # frequent terms
        depth = db.tree.depth
        # query + parse + postings_fetch + <= 4 spans
        # per level (join/score/erase/rank_join) with headroom.
        budget = 4 + 6 * depth
        assert 0 < counting.calls <= budget
        counting.calls = 0
        db.search_topk("gamma beta", k=5)
        assert 0 < counting.calls <= budget

    def test_disabled_tracing_overhead_within_budget(self, corpus_db):
        """Arithmetic form of the <=5% guard: (span calls per query) x
        (measured cost of one no-op span) must be under 5% of the
        query's wall time.  Deterministic enough for CI: the no-op is
        ~100ns while the query is milliseconds."""
        import time

        counting = CountingNullTracer()
        db = _fresh_db(corpus_db, tracer=counting)

        def run():
            db.search("gamma beta")

        run()  # warm indexes/postings outside the timed region
        query_ms = min(_timed(run) for _ in range(3))
        calls = counting.calls // 4  # span calls of one query

        null = NullTracer()

        def null_spans():
            for _ in range(calls):
                with null.span("x") as span:
                    span.tag(a=1)

        overhead_ms = min(_timed(null_spans) for _ in range(3))
        assert overhead_ms <= 0.05 * query_ms

    def test_deadline_polling_overhead_within_budget(self, corpus_db):
        """Same arithmetic guard for query budgets: (deadline polls per
        query) x (measured cost of one `expired()` call) must stay
        under 5% of the query's wall time.  Polls happen once per level
        on the complete-search path and once per rank-join retrieval on
        the top-K path, so the count is bounded by the work counters."""
        from repro.reliability import Deadline

        db = _fresh_db(corpus_db)

        def run():
            db.search("gamma beta", deadline=Deadline(3_600_000.0))

        run()  # warm indexes/postings outside the timed region
        query_ms = min(_timed(run) for _ in range(3))

        _results, stats = db.search("gamma beta", with_stats=True)
        top = db.search_topk("gamma beta", k=10)
        # Level polls, rank-join cadence polls (one per 16 retrievals,
        # the emission-attempt cadence), and generous headroom for the
        # per-fetch and buffer-drain checks.
        polls = 2 * (stats.levels_processed
                     + top.stats.tuples_scanned // 16 + 16)

        never = Deadline(3_600_000.0)

        def poll():
            for _ in range(polls):
                never.expired()

        overhead_ms = min(_timed(poll) for _ in range(3))
        assert overhead_ms <= 0.05 * query_ms

    def test_checksum_verification_overhead_within_budget(
            self, small_db, tmp_path):
        """Digesting the stored blobs must cost under 5% of an
        unverified load: (bytes hashed) x (measured per-byte digest
        cost), against the `verify="off"` wall time."""
        import json
        import os

        from repro.diskdb import load_database
        from repro.reliability.checksum import checksum

        path = str(tmp_path / "db")
        small_db.save(path)
        with open(os.path.join(path, "meta.json")) as fh:
            manifest = json.load(fh)["checksum"]
        blobs = []
        for name in manifest["files"]:
            with open(os.path.join(path, name), "rb") as fh:
                blobs.append(fh.read())

        def load_unverified():
            load_database(path, verify="off")

        load_unverified()
        load_ms = min(_timed(load_unverified) for _ in range(3))

        def digest_all():
            for blob in blobs:
                checksum(blob, manifest["algorithm"])

        digest_ms = min(_timed(digest_all) for _ in range(3))
        assert digest_ms <= 0.05 * load_ms


def _timed(fn):
    import time

    start = time.perf_counter()
    fn()
    return (time.perf_counter() - start) * 1000.0


# ---------------------------------------------------------------------------
# diskdb: an opened database takes the same observability arguments
# ---------------------------------------------------------------------------

class TestDiskMetrics:
    def test_open_forwards_observability_kwargs(self, small_db, tmp_path):
        path = str(tmp_path / "db")
        small_db.save(path)
        tracer = Tracer()
        db = XMLDatabase.open(path, tracer=tracer)
        db.search("xml data")
        assert tracer.last_root().tags["terms"] == ["xml", "data"]


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

class TestTraceCLI:
    def test_trace_verb(self, tmp_path, capsys):
        from repro.cli import main
        from tests.conftest import SMALL_XML

        doc = tmp_path / "doc.xml"
        doc.write_text(SMALL_XML, encoding="utf-8")
        out = tmp_path / "trace.jsonl"
        assert main(["trace", str(doc), "xml data",
                     "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "query" in text and "join" in text
        spans = [json.loads(line)
                 for line in out.read_text().strip().splitlines()]
        assert spans[0]["name"] == "query"

    def test_trace_verb_topk(self, tmp_path, capsys):
        from repro.cli import main
        from tests.conftest import SMALL_XML

        doc = tmp_path / "doc.xml"
        doc.write_text(SMALL_XML, encoding="utf-8")
        assert main(["trace", str(doc), "xml data", "-k", "2"]) == 0
        text = capsys.readouterr().out
        assert "topk_termination" in text

    def test_trace_verb_slowlog(self, tmp_path, capsys):
        from repro.cli import main
        from tests.conftest import SMALL_XML

        doc = tmp_path / "doc.xml"
        doc.write_text(SMALL_XML, encoding="utf-8")
        assert main(["trace", str(doc), "xml data", "--slow-ms", "0"]) == 0
        text = capsys.readouterr().out
        assert "slow query" in text


# ---------------------------------------------------------------------------
# slow-query threshold
# ---------------------------------------------------------------------------

class TestSlowQueryLog:
    def test_threshold(self, tmp_path, capsys):
        """``repro trace --slow-ms N`` reports the query when the time
        the verb measured reaches N, and stays quiet below it."""
        from repro.cli import main
        from tests.conftest import SMALL_XML

        doc = tmp_path / "doc.xml"
        doc.write_text(SMALL_XML, encoding="utf-8")
        assert main(["trace", str(doc), "xml data", "--slow-ms", "0"]) == 0
        assert ("slow query (>= 0 ms): xml data took"
                in capsys.readouterr().out)
        assert main(["trace", str(doc), "xml data",
                     "--slow-ms", "1e9"]) == 0
        assert "slow query" not in capsys.readouterr().out


# ---------------------------------------------------------------------------
# thread-safety of one database searched from several threads
# ---------------------------------------------------------------------------

def _search_all(db, queries, threads):
    """``(results, stats)`` per query, cache off: in this thread for
    ``threads=1``, else on a pool of that width."""
    db.columnar_index       # built before the threads race to it

    def search(query):
        return db.search(query, with_stats=True)

    if threads == 1:
        return [search(query) for query in queries]
    return on_threads(threads, search, queries)


class TestThreadSafety:
    QUERIES = ["gamma beta", "cx cy", "c3a c3b", "gamma cx"]

    def test_counter_totals_match_single_thread(self, corpus_db):
        """The registry is shared across the daemon's threads; totals
        after threaded updates must equal the single-thread sums
        exactly -- a lost update under contention would show up as a
        short count."""
        updates = [("requests", {"outcome": "ok"}, 1.0),
                   ("requests", {"outcome": "error"}, 2.0),
                   ("rejects", {"reason": "queue_full"}, 0.5)] * 400

        def publish(registry, update):
            name, labels, amount = update
            registry.counter(name, labels).inc(amount)
            registry.histogram(name + "_ms", labels).observe(amount)

        serial = MetricsRegistry()
        for update in updates:
            publish(serial, update)
        threaded = MetricsRegistry()
        on_threads(4, lambda update: publish(threaded, update), updates)
        assert threaded.render_prometheus() == serial.render_prometheus()
        assert threaded.counter("requests", {"outcome": "error"}).value \
            == 800.0

    def test_spans_never_interleave_across_threads(self, corpus_db):
        """Each worker thread builds its spans on a thread-local stack,
        so every root must be a self-consistent query tree: one root
        per query, every child a pipeline stage, and the levels under
        it consistent with a single execution -- a cross-thread leak
        would splice one query's spans under another's root."""
        tracer = Tracer()
        db = _fresh_db(corpus_db, tracer=tracer)
        results = _search_all(db, self.QUERIES * 2, threads=4)
        roots = [root for root in tracer.roots() if root.name == "query"]
        assert len(roots) == len(self.QUERIES) * 2
        stage_names = {"parse", "postings_fetch", "join",
                       "score", "erase", "rank_join", "topk_termination"}
        stats_by_terms = {}
        for _results, stats in results:
            key = tuple(stats.per_level_plan)
            stats_by_terms.setdefault(key, 0)
        for root in roots:
            assert all(child.name in stage_names
                       for child in root.children), \
                [c.name for c in root.children]
            # The span tree's per-level plan must be one query's plan,
            # never a merge of two (interleaving would double levels).
            plan = spans_per_level_plan(root)
            assert tuple(plan) in stats_by_terms
            levels = [level for level, _alg in plan]
            assert levels == sorted(set(levels), reverse=True)

    def test_threaded_results_equal_serial_results(self, corpus_db):
        db = _fresh_db(corpus_db)
        serial = _search_all(db, self.QUERIES, threads=1)
        threaded = _search_all(db, self.QUERIES, threads=4)
        for (left, _), (right, _) in zip(serial, threaded):
            assert [r.node.dewey for r in left] == \
                [r.node.dewey for r in right]


# ---------------------------------------------------------------------------
# overhead guard of the one timing mechanism (spans; phases are derived)
# ---------------------------------------------------------------------------

class TestProfilerOverheadGuard:
    @staticmethod
    def _count_spans(db, run):
        """Spans one query records under a live tracer -- also the
        number of no-op `span` calls the same query makes without one."""
        tracer = Tracer()
        db.tracer = tracer
        try:
            run()
        finally:
            db.tracer = NULL_TRACER
        return sum(1 for _ in tracer.last_root().walk())

    def test_boundary_count_is_o_levels_not_o_candidates(self, corpus_db,
                                                         tmp_path):
        """A query opens O(levels) spans in memory and O(levels + terms
        x levels) on a lazily opened database (one `decompress` per
        column touched) -- a per-candidate or per-tuple span would blow
        the budget by an order of magnitude."""
        db = _fresh_db(corpus_db)
        depth = db.tree.depth
        budget = 4 + 6 * depth  # the TestOverheadGuard span budget
        complete = self._count_spans(
            db, lambda: db.search("gamma beta"))
        assert 0 < complete <= budget
        topk = self._count_spans(
            db, lambda: db.search_topk("gamma beta", k=5))
        assert 0 < topk <= budget
        db.save(str(tmp_path / "db"))
        lazy = XMLDatabase.open(str(tmp_path / "db"), lazy=True)
        cold = self._count_spans(
            lazy, lambda: lazy.search("gamma beta"))
        assert complete < cold <= budget + 2 * depth  # 2 terms

    def test_profiler_overhead_within_budget(self, corpus_db):
        """Arithmetic form of the cost of turning tracing *on*, same
        shape as the disabled-tracing and deadline guards: (spans per
        query) x (measured cost of one live, tagged span) plus the fold
        into phase totals must stay under 10% of the query's wall time
        (measured ~4%; docs/OBSERVABILITY.md, "Overhead", has the
        end-to-end cost of a traced query)."""
        from repro.obs import phase_totals

        db = _fresh_db(corpus_db)

        def run():
            db.search("gamma beta")

        run()  # warm indexes/postings outside the timed region
        spans = self._count_spans(db, run)

        def live_spans():
            tracer = Tracer()
            with tracer.span("query") as root:
                for _ in range(spans - 1):
                    with tracer.span("join", level=1) as span:
                        span.tag(output=1)
            phase_totals(root)

        # Interleaved, so a stretch of machine noise lands on both
        # sides; the best of many is each side's undisturbed cost.
        query_ms = overhead_ms = float("inf")
        for _ in range(25):
            query_ms = min(query_ms, _timed(run))
            overhead_ms = min(overhead_ms, _timed(live_spans))
        assert overhead_ms <= 0.10 * query_ms

    def test_disabled_profile_phase_is_nearly_free(self, corpus_db):
        """With no root span open on the thread an instrumented region
        is one thread-local read returning the shared no-op: a query's
        worth of them must clear the 5% bar with a wide margin.  This
        is the whole timing cost of a default query."""
        from repro.obs.tracing import span

        db = _fresh_db(corpus_db)

        def run():
            db.search("gamma beta")

        run()
        query_ms = min(_timed(run) for _ in range(3))
        calls = self._count_spans(db, run)

        def noop_calls():
            for _ in range(calls):
                with span("join", level=1) as region:
                    region.tag(output=1)

        overhead_ms = min(_timed(noop_calls) for _ in range(3))
        assert overhead_ms <= 0.05 * query_ms
