"""The `repro serve` daemon: endpoint correctness vs. the library,
admission control (429 queue_full / 504 deadline), metric wiring, and
the worker-pool evaluation path.

The daemon runs on a private event loop in a background thread with an
ephemeral port and a private `MetricsRegistry`, so tests are hermetic
and parallel-safe.  Admission-control edge cases that would be timing
races over HTTP are driven directly against `_admit` on a scripted
semaphore instead.
"""

import asyncio
import http.client
import json
import re
import socket
import threading
import time
import types

import pytest

from repro.algorithms.base import ResultSet
from repro.algorithms.topk_keyword import TopKKeywordSearch
from repro.reliability import Deadline
from repro.serve import AdmissionError, ServeDaemon, ShardedDatabase
from repro.serve.daemon import MAX_BODY_BYTES


class DaemonHarness:
    """Run a `ServeDaemon` on its own loop + thread; HTTP helpers."""

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

    def raw(self, path, method="GET"):
        """(status, body bytes) exactly as they came off the wire."""
        conn = http.client.HTTPConnection("127.0.0.1", self.daemon.port,
                                          timeout=30)
        try:
            conn.request(method, path)
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def request(self, path, method="GET"):
        status, body = self.raw(path, method=method)
        return status, body.decode("utf-8")

    def get_json(self, path, method="GET"):
        status, body = self.request(path, method=method)
        return status, json.loads(body)


@pytest.fixture(scope="module")
def sharded(dblp_db):
    return ShardedDatabase.from_database(dblp_db, 3)


@pytest.fixture(scope="module")
def harness(sharded):
    with DaemonHarness(sharded, max_concurrency=4,
                       queue_limit=8) as h:
        yield h


def payload_ids(body):
    return [(tuple(r["dewey"]), round(r["score"], 9))
            for r in body["results"]]


def oracle_ids(results):
    return [(tuple(r.node.dewey), round(r.score, 9)) for r in results]


class TestEndpoints:
    def test_healthz(self, harness):
        status, body = harness.get_json("/healthz")
        assert status == 200
        healthy = {"state": "healthy", "breaker": "closed",
                   "pool": "ready", "rebuilds": 0}
        assert body == {"status": "ok", "shards": 3, "workers": 0,
                        "shard_health": {str(sid): healthy
                                         for sid in range(3)}}

    def test_topk_matches_library(self, harness, dblp_db):
        status, body = harness.get_json("/topk?q=alpha+beta&k=7")
        assert status == 200
        want = dblp_db.search_topk("alpha beta", 7)
        assert payload_ids(body) == oracle_ids(want.results)
        assert body["partial"] == want.partial
        assert body["cached"] is False

    def test_search_matches_library(self, harness, dblp_db):
        status, body = harness.get_json("/search?q=cx+cy&semantics=slca")
        assert status == 200
        want = dblp_db.search("cx cy", semantics="slca")
        assert payload_ids(body) == oracle_ids(want)

    def test_second_call_is_cached(self, harness, dblp_db):
        harness.get_json("/topk?q=rare+gamma&k=5")
        status, body = harness.get_json("/topk?q=rare+gamma&k=5")
        assert status == 200
        assert body["cached"] is True
        want = dblp_db.search_topk("rare gamma", 5)
        assert payload_ids(body) == oracle_ids(want.results)

    def test_bad_requests_are_typed(self, harness):
        assert harness.get_json("/topk?k=5")[0] == 400
        assert harness.get_json("/topk?q=alpha&k=zero")[0] == 400
        assert harness.get_json(
            "/search?q=alpha&semantics=nope")[0] == 400
        assert harness.get_json("/nope")[0] == 404
        for limit in ("-1", "abc"):
            status, body = harness.get_json(f"/debug/traces?limit={limit}")
            assert status == 400
            assert body["error"]["type"] == "bad_request"

    @pytest.mark.parametrize("path, headers", [
        ("/topk?q=alpha&k=3", {"Content-Length": "abc"}),
        ("/topk?q=alpha&k=3", {"Content-Length": "-5"}),
        ("/topk?q=alpha&k=3&timeout_ms=nan", {}),
        ("/search?q=alpha&timeout_ms=-3", {}),
    ])
    def test_hostile_request_is_a_400(self, harness, path, headers):
        """Never a dropped connection with no status line, never a
        budget that cannot expire."""
        conn = http.client.HTTPConnection("127.0.0.1", harness.daemon.port,
                                          timeout=30)
        try:
            conn.request("GET", path, headers=headers)
            resp = conn.getresponse()
            body = json.loads(resp.read().decode("utf-8"))
            assert resp.status == 400
            assert body["error"]["type"] == "bad_request"
            if headers:     # the stream cannot be re-synchronized
                assert resp.getheader("Connection") == "close"
        finally:
            conn.close()

    @pytest.mark.parametrize("declared, sent, status", [
        (400_000_000, 1024, 413),   # over the limit: refused unread
        (MAX_BODY_BYTES + 1, 0, 413),
        (100, 3, None),             # hung up three bytes into the body
    ])
    def test_a_body_over_the_limit_or_cut_short_never_escapes(
            self, harness, declared, sent, status):
        """A body the daemon will not read is a 413 and a closed
        connection, answered before the body arrives; a client that
        hangs up mid-body is a hang-up.  Neither reaches the loop's
        exception handler."""
        errors = []
        loop = harness.loop
        loop.set_exception_handler(lambda _loop, context:
                                   errors.append(context))
        try:
            with socket.create_connection(
                    ("127.0.0.1", harness.daemon.port), timeout=30) as sock:
                sock.sendall(b"GET /topk?q=alpha&k=3 HTTP/1.1\r\n"
                             b"Host: x\r\nContent-Length: %d\r\n\r\n"
                             % declared + b"x" * sent)
                if status is None:
                    sock.shutdown(socket.SHUT_WR)
                reply = b""
                while True:
                    chunk = sock.recv(65536)
                    if not chunk:
                        break
                    reply += chunk
            if status is None:
                assert reply == b""
            else:
                head, _sep, body = reply.partition(b"\r\n\r\n")
                assert head.startswith(b"HTTP/1.1 413 Payload Too Large")
                assert b"Connection: close" in head
                assert json.loads(body)["error"]["type"] == \
                    "payload_too_large"
            # let the connection task finish on the loop
            asyncio.run_coroutine_threadsafe(asyncio.sleep(0.05),
                                             loop).result(10)
        finally:
            loop.set_exception_handler(None)
        assert errors == []

    @pytest.mark.parametrize("workers", (0, 1))
    def test_no_terms_answers_like_the_flat_database(self, sharded, dblp_db,
                                                     workers):
        """Inline and pool: a query of no terms has no answers, not the
        document root at score 0.0."""
        with DaemonHarness(sharded, workers=workers) as h:
            for q in ("%21%21", "%ff%fe"):
                for path in (f"/search?q={q}", f"/topk?q={q}&k=5"):
                    status, body = h.get_json(path)
                    assert status == 200 and body["terms"] == []
                    assert body["results"] == []
        assert list(dblp_db.search("!!")) == []

    def test_stats_shape(self, harness):
        harness.get_json("/topk?q=alpha+beta&k=2")
        status, body = harness.get_json("/stats")
        assert status == 200
        assert body["shards"] == 3
        assert body["queue_limit"] == 8
        assert body["manifest"]["strategy"] == "root-child-mod"
        assert "results" in body["cache"]
        # every stitched trace is kept, and /stats counts them
        assert body["tracing"]["retained_traces"] > 0
        assert body["tracing"]["traces_added"] >= \
            body["tracing"]["retained_traces"]

    def test_cache_clear_requires_post_and_clears(self, harness):
        harness.get_json("/topk?q=alpha&k=3")
        assert harness.get_json("/cache/clear")[0] == 405
        status, body = harness.get_json("/cache/clear", method="POST")
        assert status == 200 and body["cleared"] is True
        assert len(harness.daemon.cache.results) == 0

    def test_metrics_exposition(self, harness):
        harness.get_json("/topk?q=alpha+beta&k=3")
        status, text = harness.request("/metrics")
        assert status == 200
        assert "repro_serve_queue_depth" in text
        assert "repro_serve_requests_total" in text
        assert 'repro_serve_rejects_total{reason="queue_full"}' in text
        assert "repro_serve_latency_ms_count" in text
        # ``workers=0`` calls the shards too: one series per shard.
        for sid in range(3):
            assert f'repro_serve_shard_ms_count{{shard="{sid}"}}' in text

    def test_cached_response_is_observed(self, harness):
        """``repro_serve_latency_ms`` is every answered request's wall
        time: a result-cache hit counts too."""
        def count():
            text = harness.request("/metrics")[1]
            return float(re.search(r"^repro_serve_latency_ms_count (\S+)$",
                                   text, re.M).group(1))

        harness.get_json("/topk?q=alpha+gamma&k=4")
        before = count()
        status, body = harness.get_json("/topk?q=alpha+gamma&k=4")
        assert status == 200 and body["cached"] is True
        assert count() == before + 1
        assert body["trace_id"] in harness.request("/metrics")[1]

    def test_zero_result_cache_size_never_answers_cached(self, sharded):
        """``result_cache_size=0`` turns the daemon's cache, the only
        one, off: every repeat is evaluated again."""
        with DaemonHarness(sharded, result_cache_size=0) as h:
            for _ in range(3):
                status, body = h.get_json("/search?q=gamma+cx")
                assert status == 200 and body["cached"] is False
            assert len(h.daemon.cache.results) == 0


class TestDeadlineOverHttp:
    def test_zero_budget_uncached_is_504(self, harness):
        status, body = harness.get_json(
            "/topk?q=beta+gamma+rare&k=50&timeout_ms=0")
        assert status == 504
        assert body["error"]["type"] == "deadline"

    def test_zero_budget_partial_policy_returns_200_partial(
            self, harness, dblp_db):
        status, body = harness.get_json(
            "/search?q=beta+gamma+rare&timeout_ms=0&partial=1")
        assert status == 200
        assert body["partial"] is True
        full = {tuple(r.node.dewey)
                for r in dblp_db.search("beta gamma rare")}
        assert {tuple(r["dewey"]) for r in body["results"]} <= full

    def test_blank_partial_takes_the_daemon_default(self, sharded):
        """``parse_qs`` drops a blank value, so ``?partial=`` is absent
        and the daemon default policy applies."""
        with DaemonHarness(sharded, default_partial=True) as h:
            status, body = h.get_json(
                "/topk?q=beta+gamma+rare&k=50&timeout_ms=0&partial=")
            assert status == 200 and body["partial"] is True
            status, body = h.get_json(
                "/topk?q=beta+gamma+rare&k=50&timeout_ms=0&partial=0")
            assert status == 504 and body["error"]["type"] == "deadline"

    def test_partial_responses_are_not_cached(self, harness):
        harness.get_json("/search?q=beta+gamma+rare&timeout_ms=0&partial=1")
        status, body = harness.get_json(
            "/search?q=beta+gamma+rare&timeout_ms=0&partial=1")
        assert body["cached"] is False

    def test_cache_hit_is_served_before_admission(self, harness):
        """A cached answer costs no slot, so it is exempt from the
        budget: the hit path returns 200 even with a zero budget."""
        harness.get_json("/topk?q=cx+cy&k=4")     # warm (no budget)
        status, body = harness.get_json(
            "/topk?q=cx+cy&k=4&timeout_ms=0")
        assert status == 200 and body["cached"] is True


#: A non-ASCII tag, which ``json.dumps`` escapes: ``"r\u00e9sum\u00e9"``.
ACCENTED_XML = """
<bib>
  <livre><titre>xml data</titre>
    <résumé>keyword search over xml data</résumé></livre>
  <livre><titre>keyword data</titre>
    <résumé>xml keyword</résumé></livre>
  <article><title>xml keyword search</title>
    <abstract>data keyword</abstract></article>
</bib>
"""

#: The fields each response sets for itself; the rest is the answer.
PER_REQUEST = ("cached", "elapsed_ms", "trace_id")


class TestEncodedAnswers:
    """The response cache keeps each answer's JSON encoded: a hit
    splices the cached bytes with its own fields and serializes no
    result again, and the bytes are what encoding the whole dict
    gives."""

    @pytest.fixture(scope="class")
    def accented(self):
        from repro import XMLDatabase

        return ShardedDatabase.from_database(
            XMLDatabase.from_xml_text(ACCENTED_XML), 2)

    @staticmethod
    def _expected(db, body, endpoint, semantics):
        """The body as ``json.dumps`` of the response dict: the answer
        fields first, then the per-request ones."""
        if endpoint == "search":
            results = db.search("xml keyword", semantics=semantics)
            bound = None
        else:
            top = db.search_topk("xml keyword", 3, semantics=semantics)
            results = top.results
            bound = None if top.bound in (None, float("inf")) else top.bound
        return json.dumps({
            "results": results.payload(), "partial": False, "bound": bound,
            "degraded": False, "terms": ["xml", "keyword"],
            "semantics": semantics, "cached": body["cached"],
            "elapsed_ms": body["elapsed_ms"],
            "trace_id": body["trace_id"]}).encode("ascii")

    @pytest.mark.parametrize("semantics", ("elca", "slca"))
    @pytest.mark.parametrize("endpoint, path", [
        ("search", "/search?q=xml+keyword"),
        ("topk", "/topk?q=xml+keyword&k=3"),
    ])
    def test_hit_bytes_are_the_miss_bytes(self, accented, endpoint, path,
                                          semantics):
        with DaemonHarness(accented) as h:
            path = f"{path}&semantics={semantics}"
            (s1, miss_raw), (s2, hit_raw) = h.raw(path), h.raw(path)
        assert s1 == s2 == 200
        assert b"\\u00e9" in miss_raw     # the escaped tag is in the answer
        miss, hit = json.loads(miss_raw), json.loads(hit_raw)
        assert miss["cached"] is False and hit["cached"] is True
        assert list(hit) == list(miss)
        assert json.dumps(dict(miss, **{key: hit[key] for key in
                                        PER_REQUEST})).encode() == hit_raw
        for raw, body in ((miss_raw, miss), (hit_raw, hit)):
            assert raw == self._expected(accented, body, endpoint,
                                         semantics)

    def test_a_hit_serializes_no_result(self, accented, monkeypatch):
        """A miss builds and encodes its results once; a hit does
        neither."""
        import repro.serve.daemon as daemon_module

        calls = {"payload": 0, "dumps": 0}
        payload, dumps = ResultSet.payload, json.dumps

        def counting_payload(self):
            calls["payload"] += 1
            return payload(self)

        def counting_dumps(obj, *args, **kwargs):
            if isinstance(obj, dict) and "results" in obj:
                calls["dumps"] += 1
            return dumps(obj, *args, **kwargs)

        monkeypatch.setattr(ResultSet, "payload", counting_payload)
        monkeypatch.setattr(daemon_module, "json",
                            types.SimpleNamespace(dumps=counting_dumps))
        with DaemonHarness(accented) as h:
            for endpoint in ("/search?q=xml+data", "/topk?q=xml+data&k=2"):
                before = dict(calls)
                assert h.get_json(endpoint)[1]["cached"] is False
                assert {key: calls[key] - before[key] for key in calls} \
                    == {"payload": 1, "dumps": 1}
                before = dict(calls)
                assert h.get_json(endpoint)[1]["cached"] is True
                assert calls == before

    @pytest.mark.parametrize("partial, degraded", [(True, False),
                                                   (True, True)])
    def test_partial_and_degraded_answers_are_not_cached(
            self, accented, partial, degraded):
        with DaemonHarness(accented) as h:
            daemon = h.daemon

            async def scripted_eval(terms, semantics, k, deadline, ctx, obs):
                results = accented.search(terms, semantics)
                return daemon._payload(results, partial, 1.5,
                                       degraded=degraded)

            daemon._eval = scripted_eval
            for _ in range(2):
                status, body = h.get_json("/search?q=xml+data")
                assert status == 200 and body["cached"] is False
                assert body["partial"] is True
                assert body["degraded"] is degraded
                assert body["bound"] == 1.5
            assert len(daemon.cache.results) == 0

    def test_no_result_cache_answers_every_request_alike(self, accented):
        with DaemonHarness(accented, result_cache_size=0) as h:
            replies = [h.raw("/topk?q=xml+keyword&k=3") for _ in range(3)]
        bodies = [json.loads(raw) for _status, raw in replies]
        assert all(status == 200 for status, _raw in replies)
        assert all(body["cached"] is False for body in bodies)
        first = bodies[0]
        for (_status, raw), body in zip(replies[1:], bodies[1:]):
            assert json.dumps(dict(first, **{key: body[key] for key in
                                             PER_REQUEST})).encode() == raw


class TestAdmissionControl:
    def _daemon(self, sharded, **kwargs):
        return ServeDaemon(sharded, **kwargs)

    def test_queue_full_is_429(self, sharded):
        daemon = self._daemon(sharded, max_concurrency=1, queue_limit=1)

        async def scenario():
            daemon._sem = asyncio.Semaphore(1)
            await daemon._sem.acquire()          # occupy the only slot
            waiter = asyncio.ensure_future(daemon._admit(None))
            await asyncio.sleep(0.01)            # waiter fills the queue
            with pytest.raises(AdmissionError) as excinfo:
                await daemon._admit(None)
            assert excinfo.value.status == 429
            assert excinfo.value.reason == "queue_full"
            daemon._sem.release()
            await waiter                         # first waiter admitted
            assert daemon._waiting == 0

        asyncio.run(scenario())
        rejects = daemon.metrics.counter("repro_serve_rejects_total",
                                         {"reason": "queue_full"})
        assert rejects.value == 1

    def test_deadline_expiry_in_queue_is_504(self, sharded):
        from repro.reliability.deadline import Deadline

        daemon = self._daemon(sharded, max_concurrency=1, queue_limit=4)

        async def scenario():
            daemon._sem = asyncio.Semaphore(1)
            await daemon._sem.acquire()          # never released
            with pytest.raises(AdmissionError) as excinfo:
                await daemon._admit(Deadline(timeout_ms=5.0))
            assert excinfo.value.status == 504
            assert excinfo.value.reason == "deadline"
            assert daemon._waiting == 0

        asyncio.run(scenario())
        rejects = daemon.metrics.counter("repro_serve_rejects_total",
                                         {"reason": "deadline"})
        assert rejects.value == 1

    def test_queue_depth_returns_to_zero(self, harness):
        for _ in range(3):
            harness.get_json("/topk?q=alpha&k=2")
        gauge = harness.daemon.metrics.gauge("repro_serve_queue_depth")
        assert gauge.value == 0
        inflight = harness.daemon.metrics.gauge("repro_serve_inflight")
        assert inflight.value == 0

    def test_concurrent_burst_all_accounted(self, harness):
        """A concurrent burst larger than max_concurrency: every
        request gets a typed response (200 or 429/504), accepted ones
        come back within their deadline budget, and the queue drains
        back to zero."""
        timeout_ms = 5000.0
        statuses = []
        accepted_ms = []
        lock = threading.Lock()

        def fire(i):
            t0 = time.perf_counter()
            status, _body = harness.get_json(
                f"/topk?q=beta+gamma&k=5&timeout_ms={timeout_ms:.0f}&x={i}")
            elapsed_ms = (time.perf_counter() - t0) * 1000.0
            with lock:
                statuses.append(status)
                if status == 200:
                    accepted_ms.append(elapsed_ms)

        threads = [threading.Thread(target=fire, args=(i,))
                   for i in range(12)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        assert len(statuses) == 12
        assert all(s in (200, 429, 504) for s in statuses)
        assert statuses.count(200) >= 1
        assert max(accepted_ms) <= timeout_ms * 1.5 + 100.0
        assert harness.daemon.metrics.gauge(
            "repro_serve_queue_depth").value == 0


class TestWorkerPools:
    def test_workers_pool_path_matches_oracle(self, sharded, dblp_db):
        with DaemonHarness(sharded, workers=1, max_concurrency=2) as h:
            status, body = h.get_json("/topk?q=alpha+beta&k=6")
            assert status == 200
            want = dblp_db.search_topk("alpha beta", 6)
            assert payload_ids(body) == oracle_ids(want.results)
            status, body = h.get_json("/search?q=rare+gamma")
            assert status == 200
            want = dblp_db.search("rare gamma")
            assert payload_ids(body) == oracle_ids(want)
            # fan-out latency histograms saw every shard that ran
            ran = {sid for terms in (["alpha", "beta"], ["rare", "gamma"])
                   for sid, shard in enumerate(sharded.shards)
                   if all(t in shard.columnar_index for t in terms)}
            assert ran
            text = h.request("/metrics")[1]
            for sid in ran:
                count = re.search(
                    rf'^repro_serve_shard_ms_count\{{shard="{sid}"\}} (\S+)$',
                    text, re.M)
                assert count and float(count.group(1)) > 0, sid

    # The pool wire, field by field: every query shape `test_sharded`
    # pins for the library, through both evaluation modes of the daemon.
    WIRE_QUERIES = ("alpha beta", "rare gamma", "cx cy", "c3a c3b c3c",
                    "alpha", "rare", "beta gamma rare")

    @staticmethod
    def _wire_rows(body):
        return [(tuple(r["dewey"]), r["score"], r["level"],
                 tuple(r["witnesses"])) for r in body["results"]]

    @staticmethod
    def _rounded(rows):
        return [(dewey, round(score, 9), level,
                 tuple(round(w, 9) for w in witnesses))
                for dewey, score, level, witnesses in rows]

    @staticmethod
    def _library_rows(results):
        return [(tuple(r.node.dewey), r.score, r.level,
                 tuple(r.witness_scores)) for r in results]

    def _replies(self, sharded, workers):
        """(endpoint, query, semantics) -> wire rows, nothing cached."""
        replies = {}
        with DaemonHarness(sharded, workers=workers, max_concurrency=2,
                           result_cache_size=0) as h:
            for query in self.WIRE_QUERIES:
                q = query.replace(" ", "+")
                for semantics in ("elca", "slca"):
                    for endpoint, path in (
                            ("search", f"/search?q={q}"),
                            ("topk", f"/topk?q={q}&k=10")):
                        status, body = h.get_json(
                            f"{path}&semantics={semantics}")
                        assert status == 200, (endpoint, query, semantics)
                        assert body["partial"] is False
                        assert body["degraded"] is False
                        assert body["bound"] is None
                        replies[endpoint, query, semantics] = \
                            self._wire_rows(body)
        return replies

    def test_every_field_matches_the_flat_database(self, sharded, dblp_db):
        inline = self._replies(sharded, workers=0)
        pooled = self._replies(sharded, workers=1)
        # Process boundary or not, the reply is the same to the bit.
        assert pooled == inline
        for (endpoint, query, semantics), rows in pooled.items():
            if endpoint == "search":
                want = dblp_db.search(query, semantics=semantics)
            else:
                want = dblp_db.search_topk(query, 10,
                                           semantics=semantics).results
            assert self._rounded(rows) == self._rounded(
                self._library_rows(want)), (endpoint, query, semantics)

    @pytest.mark.parametrize("workers", [0, 1])
    def test_partial_reply_is_subset_or_prefix_with_bound(
            self, sharded, dblp_db, workers):
        query = "beta gamma rare"
        full = self._rounded(self._library_rows(
            dblp_db.search(query)))
        ranked = self._rounded(self._library_rows(
            dblp_db.search_topk(query, 50).results))
        tail = "partial=1&timeout_ms=0"
        with DaemonHarness(sharded, workers=workers,
                           result_cache_size=0) as h:
            status, body = h.get_json(f"/search?q=beta+gamma+rare&{tail}")
            assert status == 200
            got = self._rounded(self._wire_rows(body))
            assert set(got) <= set(full)
            assert body["partial"] or got == full
            status, body = h.get_json(
                f"/topk?q=beta+gamma+rare&k=50&{tail}")
            assert status == 200
            got = self._rounded(self._wire_rows(body))
            scores = [row[1] for row in got]
            assert scores == sorted(scores, reverse=True)
            assert set(got) <= set(ranked)
            assert body["partial"] or got == ranked
            bound = body["bound"]
            assert bound is None or (isinstance(bound, float)
                                     and bound == bound
                                     and abs(bound) != float("inf"))
            if body["partial"] and bound is not None:
                # everything returned beats the bound, nothing missing does
                assert all(score > round(bound, 9) - 1e-9
                           for score in scores)
                assert [row for row in ranked if row not in got
                        and row[1] > round(bound, 9) + 1e-9] == []

    def test_two_thread_daemons_answer_from_their_own_shards(
            self, dblp_db, xmark_db):
        """Two ``workers=0`` daemons in one process, over databases that
        answer the same query differently: each answers from its own
        shards, request after interleaved request."""
        flat = {"dblp": dblp_db, "xmark": xmark_db}
        with DaemonHarness(ShardedDatabase.from_database(dblp_db, 2),
                           result_cache_size=0) as first, \
                DaemonHarness(ShardedDatabase.from_database(xmark_db, 2),
                              result_cache_size=0) as second:
            for _ in range(2):
                for name, h in (("dblp", first), ("xmark", second)):
                    status, body = h.get_json("/topk?q=alpha+beta&k=5")
                    assert status == 200 and body["degraded"] is False
                    want = flat[name].search_topk("alpha beta", 5).results
                    assert payload_ids(body) == oracle_ids(want), name
                    status, body = h.get_json("/search?q=rare+gamma")
                    assert status == 200 and body["degraded"] is False
                    want = flat[name].search("rare gamma")
                    assert payload_ids(body) == oracle_ids(want), name
        assert oracle_ids(dblp_db.search("rare gamma")) != \
            oracle_ids(xmark_db.search("rare gamma"))

    @pytest.mark.parametrize("workers", [0, 1])
    def test_budget_spent_before_dispatch_is_partial_not_504(
            self, sharded, workers):
        """A ``partial`` request whose budget dies between admission and
        the shard calls gets the policy's answer -- an empty partial --
        not a 504."""
        with DaemonHarness(sharded, workers=workers,
                           result_cache_size=0) as h:
            admit = h.daemon._admit

            async def slow_admit(deadline):
                waited = await admit(deadline)
                await asyncio.sleep(0.05)
                return waited

            h.daemon._admit = slow_admit
            for path in ("/topk?q=alpha+beta&k=5", "/search?q=alpha+beta"):
                status, body = h.get_json(
                    f"{path}&timeout_ms=20&partial=1")
                assert status == 200, body
                assert body["partial"] is True
                assert body["degraded"] is False
                assert body["results"] == [] and body["bound"] is None
            status, body = h.get_json("/topk?q=alpha+beta&k=5&timeout_ms=20")
            assert status == 504

    def test_empty_partial_topk_reply_crosses_the_wire(self, sharded):
        # What a worker ships when its budget is gone before the first
        # emission: no rows, but still one witness column per term.
        terms = ["beta", "gamma", "rare"]
        shard = sharded._qualifying(terms)[0]
        top = TopKKeywordSearch(shard.columnar_index).search(
            terms, 11, deadline=Deadline(0, on_deadline="partial"))
        assert top.partial and len(top.results) == 0
        wire = top.results.below_root().to_wire()
        back = ResultSet.from_wire(sharded.nodes, wire, len(terms), shard=0)
        assert isinstance(back, ResultSet) and len(back) == 0


class TestLifecycleAndHealth:
    """Daemon lifecycle: per-shard /healthz liveness, drain semantics
    (SIGTERM path = `stop(drain=True)`), in-flight completion, and
    clean pool shutdown."""

    def test_healthz_reports_per_shard_liveness(self, sharded):
        with DaemonHarness(sharded, workers=1) as h:
            status, body = h.get_json("/healthz")
            assert status == 200 and body["status"] == "ok"
            shard_health = body["shard_health"]
            assert sorted(shard_health) == ["0", "1", "2"]
            for cell in shard_health.values():
                assert cell["state"] == "healthy"
                assert cell["breaker"] == "closed"
                assert cell["pool"] == "ready"
                assert cell["rebuilds"] == 0

    def test_503_only_when_every_shard_is_down(self, sharded):
        with DaemonHarness(sharded, workers=1) as h:
            sup = h.daemon.supervisor
            # one dead shard: brownout, the node stays in rotation
            sup._pool_state[0] = "down"
            status, body = h.get_json("/healthz")
            assert status == 200 and body["status"] == "degraded"
            assert body["shard_health"]["0"]["state"] == "down"
            assert body["shard_health"]["1"]["state"] == "healthy"
            # all dead: pull the node
            for sid in range(3):
                sup._pool_state[sid] = "down"
            status, body = h.get_json("/healthz")
            assert status == 503 and body["status"] == "down"
            # recovery flips it back without a restart
            for sid in range(3):
                sup._pool_state[sid] = "ready"
            status, body = h.get_json("/healthz")
            assert status == 200 and body["status"] == "ok"

    def test_draining_daemon_rejects_new_queries_typed(self, sharded):
        with DaemonHarness(sharded) as h:
            h.daemon._draining = True
            try:
                status, body = h.get_json("/topk?q=alpha&k=3")
                assert status == 503
                assert body["error"]["type"] == "shutting_down"
                assert h.daemon.metrics.counter(
                    "repro_serve_rejects_total",
                    {"reason": "shutting_down"}).value == 1
                status, body = h.get_json("/healthz")
                assert status == 503 and body["status"] == "draining"
            finally:
                h.daemon._draining = False

    def test_graceful_stop_lets_inflight_finish(self, sharded):
        """`stop(drain=True)` (the SIGTERM path): an in-flight request
        completes with 200 while the daemon drains, and the pools are
        shut down afterwards."""
        h = DaemonHarness(sharded, workers=1, drain_grace_ms=5000.0)
        with h:
            daemon = h.daemon
            inner = daemon._eval

            async def slow_eval(*args, **kwargs):
                await asyncio.sleep(0.3)
                return await inner(*args, **kwargs)

            daemon._eval = slow_eval
            outcome = {}

            def fire():
                outcome["resp"] = h.get_json(
                    "/topk?q=alpha+beta&k=5&timeout_ms=10000")

            client = threading.Thread(target=fire)
            client.start()
            deadline = time.perf_counter() + 5.0
            while (daemon._inflight_count == 0
                   and time.perf_counter() < deadline):
                time.sleep(0.005)
            assert daemon._inflight_count == 1, "request never started"
            asyncio.run_coroutine_threadsafe(daemon.stop(),
                                             h.loop).result(30)
            client.join(30)
            status, body = outcome["resp"]
            assert status == 200, body
            assert body["results"], "drained request lost its results"
            assert daemon._inflight_count == 0
            sup = daemon.supervisor
            assert all(sup.pool(sid) is None for sid in range(3))
            # a post-drain connection attempt is refused: the listener
            # closed before the drain started
            with pytest.raises(OSError):
                h.request("/healthz")
