"""Tests for the per-phase breakdown of a query's time.

There is one timing instrument, the span tree; the breakdown is
`repro.obs.tracing.phase_totals`, a fold over a finished tree.  Covered
here: exclusive-time attribution, the ambient (thread-local) way an
instrumented region reaches the tracer, the `repro_phase_time_ms`
histograms and slow-log phase attachment -- in memory, lazily opened
from disk, and top-K.  (File, class and test names predate the fold:
they are the ids of the behaviours that survived the phase profiler.)
"""

import threading
import time

import pytest

from repro import XMLDatabase
from repro.obs import (PHASES, MetricsRegistry, SlowQueryLog, Tracer,
                       phase_totals, render_phases)
from repro.obs.tracing import NULL_SPAN, span


def _fresh_db(source_db, **kwargs):
    kwargs.setdefault("metrics", MetricsRegistry())
    return XMLDatabase.from_xml_text(source_db.tree.to_xml(), **kwargs)


def _phase_sums(db):
    """``repro_phase_time_ms`` sums per phase from the db's registry."""
    return {key.split('"')[1]: data["sum"]
            for key, data in db.metrics.snapshot()["histograms"].items()
            if key.startswith("repro_phase_time_ms")}


# ---------------------------------------------------------------------------
# phase_totals: exclusive attribution
# ---------------------------------------------------------------------------

class TestQueryProfile:
    def test_exclusive_time_sums_to_total(self):
        tracer = Tracer()
        with tracer.span("query"):
            with tracer.span("postings_fetch"):
                time.sleep(0.002)
                with tracer.span("decompress"):  # fetch stops accruing
                    time.sleep(0.002)
            time.sleep(0.001)
        root = tracer.last_root()
        phases = phase_totals(root)
        assert set(phases) == {"fetch", "decompress", "other"}
        assert phases["fetch"] > 1.0
        assert phases["decompress"] > 1.0
        assert phases["other"] > 0.5
        assert sum(phases.values()) == pytest.approx(root.duration_ms)
        # The dict form (slow log, stitched serve traces) folds the same.
        assert phase_totals(root.to_dict()) == phases

    def test_nesting_charges_the_innermost_phase(self):
        tracer = Tracer()
        with tracer.span("join"):
            with tracer.span("erase"):
                time.sleep(0.005)
        phases = phase_totals(tracer.last_root())
        # Nearly all the time was inside erase; join only held the
        # stack during the boundary crossings.
        assert phases["erase"] > phases["join"]

    def test_unknown_span_names_are_other(self):
        tracer = Tracer()
        with tracer.span("request"):
            with tracer.span("cache_lookup"):
                pass
            with tracer.span("topk_termination"):
                pass
        phases = phase_totals(tracer.last_root())
        assert set(phases) == {"other", "topk"}
        assert set(phases) <= set(PHASES)

    def test_render_phases_lists_in_pipeline_order(self):
        text = render_phases({"other": 1.0, "join": 2.0, "parse": 1.0})
        assert [line.split()[0] for line in text.splitlines()] == \
            ["parse", "join", "other"]
        assert "50.0%" in text.splitlines()[1]


# ---------------------------------------------------------------------------
# module-level plumbing: the ambient tracer
# ---------------------------------------------------------------------------

class TestProfilePhase:
    def test_noop_without_active_profile(self):
        region = span("join", level=3)
        assert region is NULL_SPAN
        with region as s:
            s.tag(a=1)  # must be harmless

    def test_scope_activates_and_restores(self):
        tracer = Tracer()
        with tracer.span("query") as root:
            with span("postings_fetch") as fetch:
                assert fetch is not NULL_SPAN
        assert span("join") is NULL_SPAN
        assert root.children == [fetch]
        assert tracer.last_root() is root

    def test_scopes_nest_per_thread(self):
        outer, inner = Tracer(), Tracer()
        with outer.span("query"):
            with inner.span("query"):
                with span("join"):
                    pass
            with span("erase"):
                pass
        assert [s.name for s in inner.last_root().walk()] == \
            ["query", "join"]
        assert [s.name for s in outer.last_root().walk()] == \
            ["query", "erase"]

    def test_threads_have_independent_profiles(self):
        tracer = Tracer()
        seen = {}

        def worker(name):
            with tracer.span("query") as root:
                with span("join"):
                    time.sleep(0.002)
            seen[name] = root

        with tracer.span("query") as main_root:
            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(3)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
        assert len({id(root) for root in seen.values()}) == 3
        for root in seen.values():
            assert phase_totals(root)["join"] > 1.0
        # The workers' join time never leaked into the main tree.
        assert "join" not in phase_totals(main_root)


class TestPhaseProfiler:
    def test_publishes_phase_histograms(self, small_db):
        db = _fresh_db(small_db, tracer=Tracer())
        db.search("xml data", use_cache=False)
        phases = phase_totals(db.tracer.last_root())
        snap = db.metrics.snapshot()["histograms"]
        # One observation per touched phase, and exactly the folded value.
        for phase, ms in phases.items():
            hist = snap[f'repro_phase_time_ms{{phase="{phase}"}}']
            assert hist["count"] == 1
            assert hist["sum"] == pytest.approx(ms)
        assert _phase_sums(db).keys() == phases.keys()
        assert "join" in phases and "other" in phases

    def test_null_profiler_records_nothing(self, small_db):
        db = _fresh_db(small_db)  # NULL_TRACER: the default
        db.search("xml data", use_cache=False)
        db.search_topk("xml data", k=2)
        assert db.tracer.last_root() is None
        assert _phase_sums(db) == {}


# ---------------------------------------------------------------------------
# database integration
# ---------------------------------------------------------------------------

class TestDatabaseIntegration:
    def test_search_populates_phase_histograms(self, small_db):
        db = _fresh_db(small_db, tracer=Tracer())
        db.search("xml data", use_cache=False)
        phases = set(_phase_sums(db))
        assert {"parse", "fetch", "join", "score", "erase"} <= phases
        assert phases <= set(PHASES)

    def test_topk_attributes_rank_join_phases(self, dblp_db):
        db = _fresh_db(dblp_db, tracer=Tracer())
        db.search_topk("alpha beta", k=3)
        root = db.tracer.last_root()
        phases = phase_totals(root)
        assert "rank_join" in phases
        assert "topk" in phases
        assert set(phases) <= set(PHASES)
        assert sum(phases.values()) == pytest.approx(root.duration_ms)
        assert _phase_sums(db) == pytest.approx(phases)

    def test_slow_log_carries_the_phase_breakdown(self, small_db):
        db = _fresh_db(small_db, slow_query_ms=0.0)  # record everything
        db.search("xml data", use_cache=False)
        records = db.slow_log.records()
        assert records
        phases = records[-1].phases
        assert phases is not None
        assert all(ms >= 0.0 for ms in phases.values())
        assert set(phases) <= set(PHASES)
        assert records[-1].as_dict()["phases"] == phases

    def test_slow_log_without_a_tracer_traces_its_queries(self, small_db):
        """No tracer was passed, so the database ran the query under a
        private live one: the record has the tree, and its breakdown is
        the fold of that tree."""
        db = _fresh_db(small_db, slow_query_ms=0.0)
        assert not db.tracer.enabled
        db.search("xml data", use_cache=False)
        record = db.slow_log.records()[-1]
        assert record.trace["name"] == "query"
        assert record.phases == phase_totals(record.trace)
        assert sum(record.phases.values()) == \
            pytest.approx(record.trace["duration_ms"])
        assert _phase_sums(db) == pytest.approx(record.phases)
        assert db.tracer.last_root() is None  # nothing else kept it

    def test_null_profiler_keeps_slow_log_phase_free(self):
        """No span tree, no breakdown: a record made without a trace
        (a caller of the log other than `XMLDatabase`) has neither."""
        log = SlowQueryLog(threshold_ms=0.0)
        log.maybe_record(1.0, ["xml"], "elca", "join")
        record = log.records()[-1]
        assert record.trace is None
        assert record.phases is None

    def test_lazy_disk_query_attributes_decompress(self, small_db,
                                                   tmp_path):
        """The column decode happens inside an index object shared by
        every query; its span still lands in the tree of the query that
        paid for it, and the phases still sum to the root."""
        small_db.save(str(tmp_path / "db"))
        tracer = Tracer()
        db = XMLDatabase.open(str(tmp_path / "db"), lazy=True,
                              tracer=tracer, metrics=MetricsRegistry())
        db.search("xml data", use_cache=False)
        root = tracer.last_root()
        decodes = root.find("decompress")
        assert decodes
        assert all(s.tags["bytes"] > 0 and s.tags["codec"]
                   for s in decodes)
        phases = phase_totals(root)
        assert phases["decompress"] > 0.0
        assert set(phases) <= set(PHASES)
        assert sum(phases.values()) == pytest.approx(root.duration_ms)
        assert _phase_sums(db) == pytest.approx(phases)
