"""Distributed tracing, access log and SLO tracking on the serve path.

The contract under test (docs/OBSERVABILITY.md):

* every request the daemon accepts yields exactly one stitched trace,
  and on the fork-worker path its ``shard`` span count equals the
  vocabulary-pruned fan-out, each shard span carrying the worker's own
  span tree with rank-join retrieval counts;
* traces survive deadline partials and internal errors, and shed 429s /
  timed-out 504s still produce access-log records;
* the tail sampler always retains slow/error/shed/partial requests;
* `SLOTracker` burn rates follow the SRE-workbook arithmetic (429
  sheds excluded from the availability budget) and the offline rebuild
  from access-log JSONL matches the online tracker;
* the per-request observability tail stays cheap (the CI <=5% guard's
  microbenchmark half).
"""

import asyncio
import http.client
import json
import threading

import pytest

from repro.obs import PHASES, MetricsRegistry, phase_totals
from repro.obs.distributed import (TRACE_WIRE_VERSION, TailSampler,
                                   TraceContext, count_spans, make_span,
                                   new_trace_id, read_jsonl,
                                   render_stitched, shift_span,
                                   stitch_trace)
from repro.obs.slo import (SLOConfig, SLOTracker, format_slo_report,
                           report_from_records)
from repro.serve import ServeDaemon, ShardedDatabase


class DaemonHarness:
    """Run a `ServeDaemon` on its own loop + thread; HTTP helpers
    (the tests/test_serve_daemon.py pattern)."""

    def __init__(self, db, **kwargs):
        kwargs.setdefault("port", 0)
        kwargs.setdefault("metrics", MetricsRegistry())
        self.daemon = ServeDaemon(db, **kwargs)
        self.loop = asyncio.new_event_loop()
        self._ready = threading.Event()
        self.thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        asyncio.set_event_loop(self.loop)
        self.loop.run_until_complete(self.daemon.start())
        self._ready.set()
        self.loop.run_forever()

    def __enter__(self):
        self.thread.start()
        assert self._ready.wait(10), "daemon failed to start"
        return self

    def __exit__(self, *exc):
        asyncio.run_coroutine_threadsafe(self.daemon.stop(),
                                         self.loop).result(10)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(10)
        self.loop.close()

    def request(self, path, method="GET"):
        conn = http.client.HTTPConnection("127.0.0.1", self.daemon.port,
                                          timeout=30)
        try:
            conn.request(method, path)
            resp = conn.getresponse()
            body = resp.read().decode("utf-8")
            return resp.status, body
        finally:
            conn.close()

    def get_json(self, path, method="GET"):
        status, body = self.request(path, method=method)
        return status, json.loads(body)


# ---------------------------------------------------------------------------
# wire format
# ---------------------------------------------------------------------------

class TestTraceContextWire:
    def test_roundtrip(self):
        ctx = TraceContext(parent_span="scatter", sampled=True)
        back = TraceContext.from_wire(ctx.to_wire())
        assert back.trace_id == ctx.trace_id
        assert back.parent_span == "scatter"
        assert back.sampled is True

    def test_child_keeps_trace_id(self):
        ctx = TraceContext()
        child = ctx.child("scatter")
        assert child.trace_id == ctx.trace_id
        assert child.parent_span == "scatter"

    def test_unknown_version_disables_collection(self):
        wire = TraceContext().to_wire()
        wire["v"] = TRACE_WIRE_VERSION + 1
        assert TraceContext.from_wire(wire) is None
        assert TraceContext.from_wire(None) is None
        assert TraceContext.from_wire({}) is None

    def test_trace_ids_are_unique_hex(self):
        ids = {new_trace_id() for _ in range(64)}
        assert len(ids) == 64
        assert all(len(t) == 16 and int(t, 16) >= 0 for t in ids)


# ---------------------------------------------------------------------------
# stitching (dict spans)
# ---------------------------------------------------------------------------

def _worker_tree():
    return make_span("shard_query", 0.0, 10.0, {"retrievals": 99}, [
        make_span("rank_join", 1.0, 8.0, {"retrievals": 99}),
    ])


def _shards(n):
    return [{"shard": sid, "elapsed_ms": 10.0, "partial": False,
             "retrievals": 99, "emitted": 5, "trace": _worker_tree()}
            for sid in range(n)]


class TestStitchTrace:
    def test_shard_spans_match_fanout(self):
        trace = stitch_trace("t" * 16, "topk", ["a", "b"], "elca", 5,
                             200, "ok", 15.0, 0.1, shards=_shards(3),
                             scatter_ms=12.0, merge_ms=1.0)
        assert trace["trace_id"] == "t" * 16
        assert count_spans(trace, "shard") == 3
        assert count_spans(trace, "shard_query") == 3
        assert count_spans(trace, "rank_join") == 3
        assert count_spans(trace, "queue_wait") == 1
        assert count_spans(trace, "merge") == 1

    def test_cached_request_has_cache_hit_no_scatter(self):
        trace = stitch_trace("c" * 16, "topk", ["a"], "elca", 5,
                             200, "ok", 0.2, 0.0, cached=True)
        assert count_spans(trace, "cache_hit") == 1
        assert count_spans(trace, "scatter") == 0

    def test_shed_request_stitches_bare_root(self):
        trace = stitch_trace("s" * 16, "topk", ["a"], "elca", 5,
                             429, "shed", 0.1, 0.0)
        root = trace["root"]
        assert root["tags"]["outcome"] == "shed"
        assert count_spans(trace, "shard") == 0

    def test_render_contains_names_and_tags(self):
        trace = stitch_trace("r" * 16, "topk", ["a"], "elca", 5,
                             200, "ok", 15.0, 0.1, shards=_shards(2))
        text = render_stitched(trace)
        assert "request" in text and "scatter" in text
        assert "shard_query" in text and "retrievals=99" in text

    def test_shift_span_moves_whole_tree(self):
        shifted = shift_span(_worker_tree(), 7.5)
        assert shifted["start_ms"] == 7.5
        assert shifted["children"][0]["start_ms"] == 8.5


# ---------------------------------------------------------------------------
# tail sampling
# ---------------------------------------------------------------------------

class TestTailSampler:
    def test_outliers_always_kept_even_at_rate_zero(self):
        sampler = TailSampler(slow_ms=100.0, sample_rate=0.0)
        assert sampler.keep(500, "error", 1.0)
        assert sampler.keep(429, "shed", 0.1)
        assert sampler.keep(504, "deadline", 0.1)
        assert sampler.keep(200, "partial", 1.0)
        assert sampler.keep(200, "ok", 250.0)   # slow
        assert not sampler.keep(200, "ok", 1.0)  # fast + healthy

    def test_rate_one_keeps_everything(self):
        sampler = TailSampler(slow_ms=100.0, sample_rate=1.0)
        assert all(sampler.keep(200, "ok", 1.0) for _ in range(20))

    def test_seeded_downsampling_is_reproducible(self):
        picks = [TailSampler(sample_rate=0.5, seed=7).keep(200, "ok", 1.0)
                 for _ in range(1)]
        again = [TailSampler(sample_rate=0.5, seed=7).keep(200, "ok", 1.0)
                 for _ in range(1)]
        assert picks == again
        sampler = TailSampler(sample_rate=0.5, seed=7)
        kept = sum(sampler.keep(200, "ok", 1.0) for _ in range(400))
        assert 100 < kept < 300


# ---------------------------------------------------------------------------
# SLO tracker arithmetic
# ---------------------------------------------------------------------------

class TestSLOTracker:
    def _tracker(self, **cfg):
        clock = {"now": 1000.0}
        tracker = SLOTracker(SLOConfig(**cfg),
                             clock=lambda: clock["now"])
        return tracker, clock

    def test_availability_burn_rate(self):
        # 1 bad in 100 budgeted = 1% bad ratio; budget 0.1% -> burn 10.
        tracker, _ = self._tracker(availability_target=0.999)
        for _ in range(99):
            tracker.record(200, 1.0)
        tracker.record(504, 1.0)
        win = tracker.report()["windows"]["60s"]
        assert win["requests"] == 100
        assert win["bad"] == 1
        assert win["availability"] == pytest.approx(0.99)
        assert win["availability_burn_rate"] == pytest.approx(10.0)

    def test_sheds_spend_no_availability_budget(self):
        tracker, _ = self._tracker(availability_target=0.999)
        for _ in range(10):
            tracker.record(429, 0.1)
        tracker.record(200, 1.0)
        win = tracker.report()["windows"]["60s"]
        assert win["shed"] == 10
        assert win["availability"] == 1.0
        assert win["availability_burn_rate"] == 0.0

    def test_latency_violations_alert(self):
        # Every 200 over a 0.01ms target: slow ratio 1.0, budget 1%,
        # burn rate 100 on every window -> alerts fire.
        tracker, _ = self._tracker(latency_target_ms=0.01,
                                   latency_target_ratio=0.99)
        for _ in range(50):
            tracker.record(200, 5.0)
        report = tracker.report()
        win = report["windows"]["60s"]
        assert win["slow"] == 50
        assert win["latency_burn_rate"] == pytest.approx(100.0)
        assert any(a["objective"] == "latency" for a in report["alerts"])
        assert "ALERT latency" in format_slo_report(report)

    def test_old_events_age_out_of_short_window(self):
        tracker, clock = self._tracker(availability_target=0.999)
        tracker.record(504, 1.0)
        clock["now"] += 120.0           # past the 60s window
        tracker.record(200, 1.0)
        report = tracker.report()
        assert report["windows"]["60s"]["bad"] == 0
        assert report["windows"]["300s"]["bad"] == 1
        assert report["lifetime"]["bad"] == 1

    def test_offline_rebuild_matches_online(self):
        tracker, clock = self._tracker()
        records = []
        for i, (status, ms) in enumerate(
                [(200, 5.0), (200, 900.0), (429, 0.1), (504, 2.0)]):
            tracker.record(status, ms)
            records.append({"wall_time": clock["now"], "status": status,
                            "elapsed_ms": ms})
            clock["now"] += 1.0
        clock["now"] -= 1.0              # report at the last event
        online = tracker.report()
        offline = report_from_records(records)
        assert offline["windows"] == online["windows"]
        assert offline["lifetime"] == online["lifetime"]


# ---------------------------------------------------------------------------
# the daemon end-to-end: fork workers ship span trees back
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def sharded(dblp_db):
    return ShardedDatabase.from_database(dblp_db, 3)


@pytest.fixture(scope="module")
def pool_harness(sharded):
    with DaemonHarness(sharded, workers=1, max_concurrency=4,
                       queue_limit=8, slow_ms=0.0) as h:
        yield h


def _spans_named(span, name):
    out = [span] if span.get("name") == name else []
    for child in span.get("children", []):
        out.extend(_spans_named(child, name))
    return out


def _pruned_fanout(sharded, terms):
    """The vocabulary-pruned scatter width -- the oracle the stitched
    trace's shard span count must equal."""
    return len([s for s in sharded.shards
                if all(t in s.columnar_index for t in terms)])


class TestDaemonStitchedTraces:
    def test_one_trace_shard_count_equals_fanout(self, pool_harness,
                                                 sharded):
        added_before = pool_harness.daemon.traces.added
        status, body = pool_harness.get_json("/topk?q=alpha+beta&k=5")
        assert status == 200 and body["trace_id"]
        assert pool_harness.daemon.traces.added == added_before + 1
        status, trace = pool_harness.get_json(
            f"/debug/traces?trace_id={body['trace_id']}")
        assert status == 200
        want = _pruned_fanout(sharded, ["alpha", "beta"])
        assert want >= 2
        assert count_spans(trace, "shard") == want
        root = trace["root"]
        assert root["tags"]["mode"] == "pool"
        assert root["tags"]["fanout"] == want
        assert count_spans(trace, "queue_wait") == 1
        assert count_spans(trace, "scatter") == 1

    def test_shard_spans_carry_worker_trees(self, pool_harness):
        _, body = pool_harness.get_json("/topk?q=gamma+beta&k=4")
        _, trace = pool_harness.get_json(
            f"/debug/traces?trace_id={body['trace_id']}")
        shard_spans = _spans_named(trace["root"], "shard")
        assert shard_spans
        for span in shard_spans:
            workers = _spans_named(span, "shard_query")
            assert len(workers) == 1
            assert workers[0]["tags"]["retrievals"] >= 0
            assert workers[0]["tags"]["pid"] > 0
            # the engine's own spans came along under shard_query
            assert workers[0]["children"]

    def test_search_path_is_traced_too(self, pool_harness, sharded):
        _, body = pool_harness.get_json("/search?q=cx+cy&semantics=slca")
        _, trace = pool_harness.get_json(
            f"/debug/traces?trace_id={body['trace_id']}")
        assert count_spans(trace, "shard") == \
            _pruned_fanout(sharded, ["cx", "cy"])

    def test_access_log_references_same_trace(self, pool_harness):
        _, body = pool_harness.get_json("/topk?q=alpha+gamma&k=3")
        records = [r for r in pool_harness.daemon.access_log.records()
                   if r["trace_id"] == body["trace_id"]]
        assert len(records) == 1
        record = records[0]
        assert record["status"] == 200 and record["outcome"] == "ok"
        assert record["terms"] == ["alpha", "gamma"]
        assert record["shards"], "per-shard breakdown missing"
        for shard in record["shards"]:
            assert "trace" not in shard     # span trees stay out of logs
            assert "retrievals" in shard

    def test_cached_repeat_gets_fresh_trace_with_cache_hit(
            self, pool_harness):
        pool_harness.get_json("/topk?q=rare+beta&k=5")
        _, body = pool_harness.get_json("/topk?q=rare+beta&k=5")
        assert body["cached"] is True
        _, trace = pool_harness.get_json(
            f"/debug/traces?trace_id={body['trace_id']}")
        assert count_spans(trace, "cache_hit") == 1
        assert count_spans(trace, "shard") == 0

    def test_slow_log_has_stitched_shard_breakdown(self, pool_harness):
        pool_harness.get_json("/topk?q=beta+gamma&k=5")
        records = pool_harness.daemon.slow_log.records()
        assert records          # threshold 0: everything is slow
        record = records[-1]
        assert record.algorithm.startswith("serve-")
        assert record.stats["trace_id"]
        assert record.stats["shards"]
        assert record.trace["name"] == "request"

    def test_slow_log_phases_are_the_fold_of_the_stitched_tree(
            self, pool_harness):
        """A served request never ran under `XMLDatabase._run_query`;
        its breakdown comes from the same fold, over the stitched tree
        (worker engine spans grafted under the shard spans)."""
        pool_harness.get_json("/topk?q=alpha+beta+gamma&k=7")
        record = pool_harness.daemon.slow_log.records()[-1]
        assert record.phases == phase_totals(record.trace)
        assert "rank_join" in record.phases     # from a worker's tree
        assert set(record.phases) <= set(PHASES)
        assert sum(record.phases.values()) == pytest.approx(
            record.trace["duration_ms"], rel=0.01)

    def test_worker_metrics_surface_in_stats_and_metrics(
            self, pool_harness):
        pool_harness.get_json("/topk?q=alpha+beta&k=2")
        _, stats = pool_harness.get_json("/stats")
        assert stats["tracing"]["enabled"] is True
        assert stats["tracing"]["retained_traces"] > 0
        per_shard = stats["worker_metrics"]
        assert per_shard
        assert any("repro_shard_requests_total" in key
                   for counters in per_shard.values()
                   for key in counters)
        _, text = pool_harness.request("/metrics")
        assert "repro_worker_shard_requests_total" in text
        assert 'shard="' in text

    def test_latency_exemplars_in_exposition(self, pool_harness):
        pool_harness.get_json("/topk?q=gamma&k=2")
        _, text = pool_harness.request("/metrics")
        lines = [line for line in text.splitlines()
                 if line.startswith("repro_serve_latency_ms_bucket")
                 and "# {" in line]
        assert lines, "no exemplar on any latency bucket"
        assert 'trace_id="' in lines[0]

    def test_slo_endpoint_counts_requests(self, pool_harness):
        pool_harness.get_json("/topk?q=alpha&k=2")
        status, report = pool_harness.get_json("/slo")
        assert status == 200
        assert report["schema"] == "repro.obs.slo/v1"
        assert report["lifetime"]["requests"] > 0
        assert set(report["windows"]) == {"60s", "300s", "3600s"}

    def test_debug_traces_listing_and_404(self, pool_harness):
        pool_harness.get_json("/topk?q=beta&k=2")
        status, listing = pool_harness.get_json("/debug/traces?limit=5")
        assert status == 200 and listing["traces"]
        assert {"trace_id", "status", "outcome", "shards"} <= \
            set(listing["traces"][0])
        assert pool_harness.get_json(
            "/debug/traces?trace_id=feedfacefeedface")[0] == 404

    def test_deadline_partial_keeps_its_trace(self, pool_harness):
        # a (terms, k) pair no earlier test cached -- a result-cache hit
        # would answer before admission and never touch the deadline
        status, body = pool_harness.get_json(
            "/topk?q=alpha+beta&k=9&timeout_ms=0&partial=1")
        assert status == 200 and body["partial"] is True
        status, trace = pool_harness.get_json(
            f"/debug/traces?trace_id={body['trace_id']}")
        assert status == 200    # partial outcomes are always retained
        assert trace["outcome"] == "partial"


# ---------------------------------------------------------------------------
# admission rejections and errors still leave records
# ---------------------------------------------------------------------------

class TestRejectionObservability:
    def test_429_shed_is_logged_and_traced(self, sharded):
        with DaemonHarness(sharded, queue_limit=0) as h:
            status, body = h.get_json("/topk?q=alpha+beta&k=3")
            assert status == 429
            record = h.daemon.access_log.records()[-1]
            assert record["status"] == 429
            assert record["outcome"] == "shed"
            assert record["trace_id"] == body["trace_id"]
            trace = h.daemon.traces.get(body["trace_id"])
            assert trace is not None and trace["outcome"] == "shed"

    def test_504_deadline_is_logged_and_traced(self, sharded):
        with DaemonHarness(sharded, default_timeout_ms=0.0) as h:
            status, body = h.get_json("/topk?q=alpha+beta&k=3")
            assert status == 504
            record = h.daemon.access_log.records()[-1]
            assert record["status"] == 504
            assert record["outcome"] == "deadline"
            assert h.daemon.traces.get(body["trace_id"]) is not None

    def test_500_error_is_logged_and_traced(self, sharded):
        async def boom(*args, **kwargs):
            raise RuntimeError("injected shard failure")

        with DaemonHarness(sharded) as h:
            h.daemon._eval = boom
            status, body = h.get_json("/topk?q=alpha&k=3")
            assert status == 500
            record = h.daemon.access_log.records()[-1]
            assert record["status"] == 500
            assert record["outcome"] == "error"
            trace = h.daemon.traces.get(body["trace_id"])
            assert trace["outcome"] == "error"
            assert h.daemon.slo.lifetime.bad == 1

    def test_400_bad_request_is_logged(self, sharded):
        with DaemonHarness(sharded) as h:
            status, body = h.get_json("/topk?q=alpha&k=zero")
            assert status == 400
            record = h.daemon.access_log.records()[-1]
            assert record["status"] == 400
            assert record["outcome"] == "bad_request"
            assert record["trace_id"] == body["trace_id"]

    def test_tail_rate_zero_still_logs_but_drops_healthy_traces(
            self, sharded):
        with DaemonHarness(sharded, tail_sample_rate=0.0,
                           tail_slow_ms=1e9) as h:
            _, body = h.get_json("/topk?q=alpha+beta&k=3")
            assert h.daemon.traces.added == 0
            assert h.daemon.traces.get(body["trace_id"]) is None
            assert h.daemon.access_log.records()[-1]["status"] == 200


# ---------------------------------------------------------------------------
# JSONL files and the offline SLO path
# ---------------------------------------------------------------------------

class TestLogFiles:
    def test_jsonl_mirrors_feed_offline_slo(self, sharded, tmp_path):
        access_path = tmp_path / "access.jsonl"
        trace_path = tmp_path / "traces.jsonl"
        with DaemonHarness(sharded, access_log_path=str(access_path),
                           trace_log_path=str(trace_path)) as h:
            for query in ("alpha+beta", "gamma", "rare+beta"):
                assert h.get_json(f"/topk?q={query}&k=3")[0] == 200
        records = read_jsonl(str(access_path))
        assert len(records) == 3
        assert all(r["status"] == 200 for r in records)
        traces = read_jsonl(str(trace_path))
        assert {t["trace_id"] for t in traces} == \
            {r["trace_id"] for r in records}
        report = report_from_records(records)
        assert report["lifetime"]["requests"] == 3
        assert report["lifetime"]["bad"] == 0

    def test_read_jsonl_skips_truncated_lines(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text(json.dumps({"status": 200}) + "\n"
                        + '{"status": 20',  # a dying daemon's last write
                        encoding="utf-8")
        assert read_jsonl(str(path)) == [{"status": 200}]
