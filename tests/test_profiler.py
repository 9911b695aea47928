"""Tests for the per-phase breakdown of a query's time.

There is one timing instrument, the span tree; the breakdown is
`repro.obs.tracing.phase_totals`, a fold over a finished tree.  Covered
here: exclusive-time attribution, the ambient (thread-local) way an
instrumented region reaches the tracer, and the fold over a query's
tree -- in memory, lazily opened from disk, and top-K.  (File, class
and test names predate the fold and the removal of the per-phase
histograms: they are the ids of the behaviours that survived the phase
profiler.)
"""

import threading
import time

import pytest

from repro import XMLDatabase
from repro.obs import PHASES, Tracer, phase_totals, render_phases
from repro.obs.tracing import NULL_SPAN, span


def _fresh_db(source_db, **kwargs):
    return XMLDatabase.from_xml_text(source_db.tree.to_xml(), **kwargs)


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
        # The dict form (stitched serve traces) folds the same.
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
        db.search("xml data")
        root = db.tracer.last_root()
        phases = phase_totals(root)
        assert "join" in phases and "other" in phases
        assert sum(phases.values()) == pytest.approx(root.duration_ms)

    def test_null_profiler_records_nothing(self, small_db):
        db = _fresh_db(small_db)  # NULL_TRACER: the default
        db.search("xml data")
        db.search_topk("xml data", k=2)
        assert db.tracer.last_root() is None


# ---------------------------------------------------------------------------
# database integration
# ---------------------------------------------------------------------------

class TestDatabaseIntegration:
    def test_search_populates_phase_histograms(self, small_db):
        db = _fresh_db(small_db, tracer=Tracer())
        db.search("xml data")
        phases = set(phase_totals(db.tracer.last_root()))
        assert {"parse", "fetch", "join", "score", "erase"} <= phases
        assert phases <= set(PHASES)

    def test_topk_attributes_rank_join_phases(self, dblp_db):
        db = _fresh_db(dblp_db, tracer=Tracer())
        db.search_topk("alpha beta", k=3, algorithm="topk-join")
        root = db.tracer.last_root()
        phases = phase_totals(root)
        assert "rank_join" in phases
        assert "topk" in phases
        assert set(phases) <= set(PHASES)
        assert sum(phases.values()) == pytest.approx(root.duration_ms)

    def test_default_topk_attributes_bulk_level_phases(self, dblp_db):
        """The default plan finishes its levels in bulk: its time shows
        up as ``score`` / ``erase``, never as ``rank_join``."""
        db = _fresh_db(dblp_db, tracer=Tracer())
        db.search_topk("alpha beta", k=3)
        phases = phase_totals(db.tracer.last_root())
        assert {"join", "score", "erase", "topk"} <= set(phases)
        assert "rank_join" not in phases

    def test_lazy_disk_query_attributes_decompress(self, small_db,
                                                   tmp_path):
        """The column decode happens inside an index object shared by
        every query; its span still lands in the tree of the query that
        paid for it, and the phases still sum to the root."""
        small_db.save(str(tmp_path / "db"))
        tracer = Tracer()
        db = XMLDatabase.open(str(tmp_path / "db"), lazy=True,
                              tracer=tracer)
        db.search("xml data")
        root = tracer.last_root()
        decodes = root.find("decompress")
        assert decodes
        assert all(s.tags["bytes"] > 0 and s.tags["codec"]
                   for s in decodes)
        phases = phase_totals(root)
        assert phases["decompress"] > 0.0
        assert set(phases) <= set(PHASES)
        assert sum(phases.values()) == pytest.approx(root.duration_ms)
