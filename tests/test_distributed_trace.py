"""Distributed tracing and the access log on the serve path.

The contract under test (docs/OBSERVABILITY.md):

* every request the daemon accepts yields exactly one record, its
  access-log fields plus the stitched trace; on the fork-worker path
  the trace's ``shard`` span count equals the vocabulary-pruned
  fan-out, each shard span carrying the worker's own span tree with
  rank-join retrieval counts;
* records survive deadline partials, internal errors, shed 429s and
  timed-out 504s;
* every record is retained in the one bounded ring, and
  ``--access-log`` mirrors it to the file ``repro trace --from-log``
  renders.
"""

import asyncio
import http.client
import json
import threading

import pytest

from repro.obs import PHASES, phase_totals, render_trace
from repro.obs.distributed import (TRACE_CAPACITY, AccessLog,
                                   format_access_record, make_span,
                                   read_jsonl, stitch_trace)
from repro.serve import ServeDaemon, ShardedDatabase
from repro.serve import daemon as daemon_module


class DaemonHarness:
    """Run a `ServeDaemon` on its own loop + thread; HTTP helpers
    (the tests/test_serve_daemon.py pattern)."""

    def __init__(self, db, **kwargs):
        kwargs.setdefault("port", 0)
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
# the trace id on the wire
# ---------------------------------------------------------------------------

class TestTraceContextWire:
    def test_roundtrip(self, dblp_db, monkeypatch):
        """The shard payload carries the request's trace id; the worker
        traces its query and tags the root with it."""
        monkeypatch.setattr(daemon_module._SERVE_DBS, "shards",
                            {0: dblp_db}, raising=False)
        outcome = daemon_module._serve_shard(
            (0, ["alpha", "beta"], "elca", 3, None, "f00dfeedf00dfeed"))
        assert outcome[5] is None
        tree = outcome[6]["trace"]
        assert tree["name"] == "shard_query"
        assert tree["tags"]["trace_id"] == "f00dfeedf00dfeed"
        assert tree["children"], "the engine's spans came along"

    def test_child_keeps_trace_id(self, pool_harness):
        """Every worker tree grafted into a request's stitched trace
        carries that request's id."""
        _, body = pool_harness.get_json("/topk?q=alpha+gamma+beta&k=2")
        record = pool_harness.daemon.access_log.get(body["trace_id"])
        workers = _spans_named(record["root"], "shard_query")
        assert workers
        assert {w["tags"]["trace_id"] for w in workers} == \
            {body["trace_id"]}

    def test_trace_ids_are_unique_hex(self, small_db):
        daemon = ServeDaemon(ShardedDatabase.from_database(small_db, 2),
                             port=0)

        async def go():
            await daemon.start()
            bodies = [json.loads((await daemon._dispatch(
                "GET", "/topk?q=xml+data&k=2"))[2]) for _ in range(32)]
            await daemon.stop()
            return bodies

        ids = {body["trace_id"] for body in asyncio.run(go())}
        assert len(ids) == 32
        assert all(len(t) == 16 and int(t, 16) >= 0 for t in ids)


# ---------------------------------------------------------------------------
# stitching (dict spans)
# ---------------------------------------------------------------------------

def _worker_tree():
    return make_span("shard_query", 0.0, 10.0, {"retrievals": 99}, [
        make_span("rank_join", 1.0, 8.0, {"retrievals": 99}),
    ])


def _spans_named(span, name):
    out = [span] if span.get("name") == name else []
    for child in span.get("children", []):
        out.extend(_spans_named(child, name))
    return out


def _count(span, name):
    return len(_spans_named(span, name))


def _shards(n):
    return [{"shard": sid, "elapsed_ms": 10.0, "partial": False,
             "retrievals": 99, "emitted": 5, "trace": _worker_tree()}
            for sid in range(n)]


class TestStitchTrace:
    def test_shard_spans_match_fanout(self):
        root = stitch_trace("t" * 16, "topk", ["a", "b"], "elca", 5,
                            200, "ok", 15.0, 0.1, shards=_shards(3),
                            scatter_ms=12.0, merge_ms=1.0)
        assert root["tags"]["trace_id"] == "t" * 16
        assert _count(root, "shard") == 3
        assert _count(root, "shard_query") == 3
        assert _count(root, "rank_join") == 3
        assert _count(root, "queue_wait") == 1
        assert _count(root, "merge") == 1

    def test_cached_request_has_cache_hit_no_scatter(self):
        root = stitch_trace("c" * 16, "topk", ["a"], "elca", 5,
                            200, "ok", 0.2, 0.0, cached=True)
        assert _count(root, "cache_hit") == 1
        assert _count(root, "scatter") == 0

    def test_shed_request_stitches_bare_root(self):
        root = stitch_trace("s" * 16, "topk", ["a"], "elca", 5,
                            429, "shed", 0.1, 0.0)
        assert root["tags"]["outcome"] == "shed"
        assert _count(root, "shard") == 0

    def test_render_contains_names_and_tags(self):
        root = stitch_trace("r" * 16, "topk", ["a"], "elca", 5,
                            200, "ok", 15.0, 0.1, shards=_shards(2))
        text = render_trace(root)
        assert "request" in text and "scatter" in text
        assert "shard_query" in text and "retrievals=99" in text


# ---------------------------------------------------------------------------
# the daemon end-to-end: fork workers ship span trees back
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def sharded(dblp_db):
    return ShardedDatabase.from_database(dblp_db, 3)


@pytest.fixture(scope="module")
def pool_harness(sharded):
    with DaemonHarness(sharded, workers=1, max_concurrency=4,
                       queue_limit=8) as h:
        yield h



def _pruned_fanout(sharded, terms):
    """The vocabulary-pruned scatter width -- the oracle the stitched
    trace's shard span count must equal."""
    return len([s for s in sharded.shards
                if all(t in s.columnar_index for t in terms)])


class TestDaemonStitchedTraces:
    def test_one_trace_shard_count_equals_fanout(self, pool_harness,
                                                 sharded):
        added_before = pool_harness.daemon.access_log.added
        status, body = pool_harness.get_json("/topk?q=alpha+beta&k=5")
        assert status == 200 and body["trace_id"]
        assert pool_harness.daemon.access_log.added == added_before + 1
        status, trace = pool_harness.get_json(
            f"/debug/traces?trace_id={body['trace_id']}")
        assert status == 200
        want = _pruned_fanout(sharded, ["alpha", "beta"])
        assert want >= 2
        assert _count(trace["root"], "shard") == want
        assert trace["root"]["tags"]["fanout"] == want
        assert _count(trace["root"], "queue_wait") == 1
        assert _count(trace["root"], "scatter") == 1

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

    def test_thread_executor_miss_carries_worker_trees(self, sharded):
        """``workers=0`` takes the same supervised shard call: a miss
        record has one ``shard`` span per qualifying shard, the worker
        tree under each."""
        with DaemonHarness(sharded, workers=0) as h:
            _, body = h.get_json("/topk?q=alpha+beta&k=5")
            record = h.daemon.access_log.get(body["trace_id"])
        shard_spans = _spans_named(record["root"], "shard")
        assert len(shard_spans) == _pruned_fanout(sharded, ["alpha", "beta"])
        assert len(shard_spans) >= 2
        for span in shard_spans:
            (worker,) = _spans_named(span, "shard_query")
            assert worker["tags"]["trace_id"] == body["trace_id"]
            assert worker["children"]

    def test_search_path_is_traced_too(self, pool_harness, sharded):
        _, body = pool_harness.get_json("/search?q=cx+cy&semantics=slca")
        _, trace = pool_harness.get_json(
            f"/debug/traces?trace_id={body['trace_id']}")
        assert _count(trace["root"], "shard") == \
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
            assert "trace" not in shard     # the span trees are in root
            assert "retrievals" in shard
        assert record["root"]["name"] == "request"
        assert record["root"]["tags"]["trace_id"] == body["trace_id"]

    def test_cached_repeat_gets_fresh_trace_with_cache_hit(
            self, pool_harness):
        pool_harness.get_json("/topk?q=rare+beta&k=5")
        _, body = pool_harness.get_json("/topk?q=rare+beta&k=5")
        assert body["cached"] is True
        _, trace = pool_harness.get_json(
            f"/debug/traces?trace_id={body['trace_id']}")
        assert _count(trace["root"], "cache_hit") == 1
        assert _count(trace["root"], "shard") == 0

    def test_record_has_stitched_shard_breakdown(self, pool_harness):
        pool_harness.get_json("/topk?q=beta+gamma&k=5")
        record = pool_harness.daemon.access_log.records()[-1]
        assert record["endpoint"] == "topk"
        assert record["trace_id"]
        assert record["shards"]
        assert _count(record["root"], "shard") == len(record["shards"])

    def test_record_phases_are_the_fold_of_the_stitched_tree(
            self, pool_harness):
        """A served request never ran under `XMLDatabase._run_query`;
        its breakdown comes from the same fold, over the stitched tree
        (worker engine spans grafted under the shard spans)."""
        pool_harness.get_json("/topk?q=alpha+beta+gamma&k=7")
        root = pool_harness.daemon.access_log.records()[-1]["root"]
        phases = phase_totals(root)
        # From a worker's tree: the default top-K scores its levels in
        # bulk there.
        assert "score" in phases
        assert set(phases) <= set(PHASES)
        assert sum(phases.values()) == pytest.approx(
            root["duration_ms"], rel=0.01)

    def test_latency_exemplars_in_exposition(self, pool_harness):
        pool_harness.get_json("/topk?q=gamma&k=2")
        _, text = pool_harness.request("/metrics")
        lines = [line for line in text.splitlines()
                 if line.startswith("repro_serve_latency_ms_bucket")
                 and "# {" in line]
        assert lines, "no exemplar on any latency bucket"
        assert 'trace_id="' in lines[0]

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
            trace = h.daemon.access_log.get(body["trace_id"])
            assert trace is not None and trace["outcome"] == "shed"

    def test_504_deadline_is_logged_and_traced(self, sharded):
        with DaemonHarness(sharded, default_timeout_ms=0.0) as h:
            status, body = h.get_json("/topk?q=alpha+beta&k=3")
            assert status == 504
            record = h.daemon.access_log.records()[-1]
            assert record["status"] == 504
            assert record["outcome"] == "deadline"
            assert h.daemon.access_log.get(body["trace_id"]) is not None

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
            trace = h.daemon.access_log.get(body["trace_id"])
            assert trace["outcome"] == "error"

    def test_400_bad_request_is_logged(self, sharded):
        with DaemonHarness(sharded) as h:
            status, body = h.get_json("/topk?q=alpha&k=zero")
            assert status == 400
            record = h.daemon.access_log.records()[-1]
            assert record["status"] == 400
            assert record["outcome"] == "bad_request"
            assert record["trace_id"] == body["trace_id"]


# ---------------------------------------------------------------------------
# JSONL files
# ---------------------------------------------------------------------------

class TestLogFiles:
    def test_jsonl_mirrors_feed_offline_slo(self, sharded, tmp_path):
        access_path = tmp_path / "access.jsonl"
        with DaemonHarness(sharded, access_log_path=str(access_path)) as h:
            ids = {h.get_json(f"/topk?q={query}&k=3")[1]["trace_id"]
                   for query in ("alpha+beta", "gamma", "rare+beta")}
        records = read_jsonl(str(access_path))
        assert len(records) == 3
        assert all(r["status"] == 200 for r in records)
        assert {r["trace_id"] for r in records} == ids
        assert all(r["root"]["name"] == "request" for r in records)

    def test_one_open_for_the_whole_log(self, sharded, tmp_path,
                                        monkeypatch):
        """N requests are N lines from one open: each record is written
        and flushed as it happens, and `stop` closes the file."""
        from repro.obs import distributed

        opened = []

        def counting_open(*args, **kwargs):
            opened.append(open(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(distributed, "open", counting_open,
                            raising=False)
        path = tmp_path / "access.jsonl"
        harness = DaemonHarness(sharded, access_log_path=str(path))
        assert opened == [], "a daemon that never starts opens no file"
        with harness as h:
            for k in range(1, 6):
                h.get_json(f"/topk?q=alpha&k={k}")
                assert len(path.read_text().splitlines()) == k
        assert len(opened) == 1 and opened[0].closed
        assert len(path.read_text().splitlines()) == 5
        # Started again, the daemon appends to the same file.
        with DaemonHarness(sharded, access_log_path=str(path)) as h:
            h.get_json("/topk?q=alpha&k=9")
        assert len(opened) == 2 and opened[1].closed
        assert len(path.read_text().splitlines()) == 6

    def test_a_start_that_cannot_bind_leaves_nothing_open(
            self, sharded, tmp_path):
        import socket

        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            daemon = ServeDaemon(sharded, port=taken.getsockname()[1],
                                 access_log_path=str(tmp_path / "a.jsonl"))
            with pytest.raises(OSError):
                asyncio.run(daemon.start())
        assert not (tmp_path / "a.jsonl").exists()
        assert all(daemon.supervisor.pool(sid) is None
                   for sid in range(sharded.n_shards))

    def test_trace_verb_renders_the_logs(self, sharded, tmp_path, capsys):
        """OBSERVABILITY.md's offline workflow: ``repro trace
        --from-log`` prints one line per request, and one request's
        line and stitched span tree with ``--trace-id``."""
        from repro.cli import main

        access_path = str(tmp_path / "access.jsonl")
        with DaemonHarness(sharded, access_log_path=access_path) as h:
            ids = [h.get_json(f"/topk?q={query}&k=3")[1]["trace_id"]
                   for query in ("alpha+beta", "gamma")]
        capsys.readouterr()
        assert main(["trace", "--from-log", access_path,
                     "--trace-id", ids[1]]) == 0
        shown = capsys.readouterr().out
        assert ids[1] in shown and ids[0] not in shown
        assert "request" in shown and "scatter" in shown
        assert main(["trace", "--from-log", access_path]) == 0
        shown = capsys.readouterr().out
        assert ids[0] in shown and ids[1] in shown
        assert len(shown.splitlines()) == 2
        assert main(["trace", "--from-log", access_path,
                     "--trace-id", "feedfacefeedface"]) == 1

    def test_sparse_records_read_as_empty(self, tmp_path, capsys):
        """The file is outside input: a record missing its fields, or a
        shard entry with a null latency, prints instead of raising."""
        from repro.cli import main

        sparse = {"status": 200}
        null_shard = {"status": 200, "trace_id": "ab" * 8,
                      "shards": [{"shard": 1, "elapsed_ms": None,
                                  "retrievals": None}]}
        assert "200" in format_access_record(sparse)
        assert "s1=0.0ms/0r" in format_access_record(null_shard)
        path = tmp_path / "log.jsonl"
        path.write_text(json.dumps(sparse) + "\n"
                        + json.dumps(null_shard) + "\n", encoding="utf-8")
        assert main(["trace", "--from-log", str(path)]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2
        assert main(["trace", "--from-log", str(path),
                     "--trace-id", "ab" * 8]) == 0
        assert "s1=0.0ms/0r" in capsys.readouterr().out

    def test_read_jsonl_skips_truncated_lines(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text(json.dumps({"status": 200}) + "\n"
                        + '{"status": 20',  # a dying daemon's last write
                        encoding="utf-8")
        assert read_jsonl(str(path)) == [{"status": 200}]


# ---------------------------------------------------------------------------
# the resource account in the access log
# ---------------------------------------------------------------------------

class TestAccessLogAccount:
    def test_fields_include_account(self):
        assert "account" in AccessLog.FIELDS

    def test_daemon_records_account_in_access_log(self, tmp_path,
                                                  small_db):
        sharded = ShardedDatabase.from_database(small_db, 2)
        log_path = str(tmp_path / "access.jsonl")
        daemon = ServeDaemon(sharded, workers=0, port=0,
                             access_log_path=log_path)

        async def go():
            await daemon.start()
            status, _, _ = await daemon._dispatch(
                "GET", "/topk?q=xml+data&k=5")
            assert status == 200
            await daemon.stop()

        asyncio.run(go())
        records = [json.loads(line)
                   for line in open(log_path, encoding="utf-8")]
        assert any("account" in r and r["account"] for r in records)


# ---------------------------------------------------------------------------
# the one ring
# ---------------------------------------------------------------------------

class TestRequestRing:
    def test_ring_capacity_and_dropped(self):
        log = AccessLog()
        for i in range(TRACE_CAPACITY + 3):
            log.record(trace_id=f"{i:016x}", status=200)
        assert len(log) == TRACE_CAPACITY
        assert log.added == TRACE_CAPACITY + 3 and log.dropped == 3
        assert log.get(f"{0:016x}") is None
        assert log.records()[0]["trace_id"] == f"{3:016x}"
        newest = log.summaries(2)
        assert [s["trace_id"] for s in newest] == \
            [f"{TRACE_CAPACITY + 2:016x}", f"{TRACE_CAPACITY + 1:016x}"]
