"""serve_open: the served path, driven over HTTP.

Set-up saves the database in two shards, starts ``python -m repro serve``
with every default, requests each hot query once on both endpoints and
every organic band term once.  The measured phase is a closed loop on two
keep-alive connections: each sends its next request when the previous
reply is complete.  The open loop (four fixed rates, each request timed
from its due time) runs in the traced run and is reported only: at 60 qps
both ends sleep between requests, and how long this guest takes to wake a
sleeping vCPU moved the open-loop p50 between 1.0 and 3.3 ms from run to
run of one commit.

The mix is fixed by construction so that it is the same at every point of
a run: 80 % of requests repeat one of 36 hot queries (each equally often;
always a result-cache hit after set-up) and 20 % are /search queries never
sent before (always a miss).  p50 therefore sits in the cache and transport
path and the miss cells of the geometric mean in scatter, shard evaluation
and merge.  /topk requests are always hot: a top-K miss on random terms is
the degenerate rank join that fig10_topk measures, and at 10 to 100 times
a /search miss it would own every tail.

Why: HTTP parsing, the result cache, admission, scatter, merge and JSON
encoding dominate; concurrency is the one dimension no in-process workload
has.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import socket
import subprocess
import sys
import threading
import time
import urllib.parse
from typing import Dict, List, Optional, Tuple

import numpy as np

import constants as C
import harness as H
from workload import Layers, Measure, Workload

HOST = "127.0.0.1"


class Request:
    __slots__ = ("index", "endpoint", "terms", "path")

    def __init__(self, index: int, endpoint: str, terms: Tuple[str, ...]):
        self.index = index
        self.endpoint = endpoint
        self.terms = terms
        query = urllib.parse.quote_plus(" ".join(terms))
        self.path = f"/search?q={query}" if endpoint == "search" \
            else f"/topk?q={query}&k={C.TOPK}"

    @property
    def key(self) -> Tuple[str, Tuple[str, ...]]:
        return (self.endpoint, self.terms)


class Reply:
    __slots__ = ("request", "status", "due", "sent", "done", "cached",
                 "elapsed_ms", "size", "digest")

    def __init__(self, request: Request, due: float, sent: float):
        self.request = request
        self.due = due
        self.sent = sent
        self.done = sent
        self.status = 0
        self.cached = False
        self.elapsed_ms = 0.0
        self.size = 0
        self.digest = None

    @property
    def latency_ms(self) -> float:        # what an open-loop user waits
        return (self.done - self.due) * 1000.0

    @property
    def service_ms(self) -> float:        # send to last byte
        return (self.done - self.sent) * 1000.0


def body_digest(endpoint: str, body: dict):
    results = body.get("results", [])
    if endpoint == "topk":
        return tuple(sorted((H.score_key(r["score"]) for r in results),
                            reverse=True))
    return frozenset((tuple(r["dewey"]), H.score_key(r["score"]))
                     for r in results)


class QueryMix:
    """The seeded request sequence; phases consume consecutive slices."""

    def __init__(self, corpus: H.Corpus, seed: int, scale: float):
        from repro.datagen.workload import random_terms_in_range

        self.rng = np.random.default_rng(seed + 101)
        index = corpus.db.inverted_index
        self.bands = []
        for n, (low, high) in enumerate(C.TERM_BANDS):
            terms = random_terms_in_range(
                index, max(2, int(low * scale)), max(4, int(high * scale)),
                C.BAND_TERMS, seed=seed + 1 + n)
            if not terms:
                raise SystemExit(f"no organic terms with df in "
                                 f"[{low}, {high}] at this scale")
            self.bands.append(terms)
        self.seen = set()
        hot = [self._fresh() for _ in range(C.HOT_POOL)]
        hot += [terms for _label, terms in corpus.correlated_queries()
                if len(terms) <= 3]
        self.hot = hot
        self.seen.update(hot)
        self.offsets = self.rng.random(2)
        self.next_index = 0
        self.lock = threading.Lock()

    def _fresh(self) -> Tuple[str, ...]:
        """An organic 2-4 term query not composed before: one frequent
        term, then mid- and low-frequency terms."""
        rng, bands = self.rng, self.bands
        while True:
            n = int(rng.integers(2, 5))
            picks = [bands[0], bands[1], bands[2], bands[1]][:n]
            terms = tuple(dict.fromkeys(
                band[int(rng.integers(len(band)))] for band in picks))
            if len(terms) >= 2 and terms not in self.seen:
                self.seen.add(terms)
                return terms

    def warm_requests(self) -> List[Request]:
        """Both endpoints of every hot query, so that no hot request of a
        measured phase is a miss, then every band term once, so that a
        miss of a measured phase never pays for a first column decode
        (disk_roundtrip measures that) and costs the same early and late
        in a run."""
        requests = [Request(-1, endpoint, terms)
                    for terms in self.hot for endpoint in ("search", "topk")]
        longest = max(len(band) for band in self.bands)
        for i in range(longest):
            terms = tuple(dict.fromkeys(band[i % len(band)]
                                        for band in self.bands))
            self.seen.add(terms)
            requests.append(Request(-1, "search", terms))
        return requests

    def take(self) -> Request:
        with self.lock:
            index = self.next_index
            self.next_index += 1
            # A low-discrepancy sequence, not random draws: every stretch
            # of a phase then holds the same share of hits, misses and
            # /topk, and no run is slow because it drew more misses.  One
            # coordinate decides both kind and endpoint: /topk is always
            # a hot query, /search is hot often enough that HOT_SHARE of
            # all requests are.
            draw = (self.offsets[0] + index * 0.7548776662466927) % 1.0
            endpoint = "topk" if draw < 1.0 - C.SEARCH_SHARE else "search"
            hot = bool(draw < C.HOT_SHARE)
            if hot:
                pick = (self.offsets[1] + index * 0.5698402909980532) % 1.0
                terms = self.hot[int(pick * len(self.hot))]
            else:
                terms = self._fresh()
            return Request(index, endpoint, terms)


class Daemon:
    """``python -m repro serve DIR --port P`` as a subprocess."""

    def __init__(self, db_dir: str, extra: Tuple[str, ...] = ()):
        with socket.socket() as probe:
            probe.bind((HOST, 0))
            self.port = probe.getsockname()[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = H.SRC + os.pathsep + env.get("PYTHONPATH", "")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", db_dir,
             "--port", str(self.port), *extra],
            env=env, cwd=H.REPO_ROOT, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        try:
            self._wait_healthy()
        except BaseException:
            self.stop()
            raise
        self.start_s = time.perf_counter() - start

    def _wait_healthy(self, timeout_s: float = 90.0) -> None:
        deadline = time.perf_counter() + timeout_s
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise SystemExit(f"repro serve exited {self.proc.returncode}")
            try:
                status, _ = self.get("/healthz")
                if status == 200:
                    return
            except (OSError, http.client.HTTPException):
                pass
            time.sleep(0.05)
        raise SystemExit("repro serve never became healthy")

    def get(self, path: str) -> Tuple[int, bytes]:
        conn = http.client.HTTPConnection(HOST, self.port, timeout=30)
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def metrics_text(self) -> str:
        return self.get("/metrics")[1].decode("utf-8")

    def peak_rss_mib(self) -> Optional[float]:
        try:
            with open(f"/proc/{self.proc.pid}/status") as handle:
                match = re.search(r"VmHWM:\s+(\d+) kB", handle.read())
        except OSError:
            return None
        return int(match.group(1)) / 1024.0 if match else None

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)


class LoadGen:
    """Client threads, one keep-alive connection each."""

    def __init__(self, port: int, mix: QueryMix):
        self.port = port
        self.mix = mix

    def _fire(self, conn: http.client.HTTPConnection, request: Request,
              due: float) -> Tuple[http.client.HTTPConnection, Reply]:
        now = time.perf_counter()
        reply = Reply(request, due or now, now)
        try:
            conn.request("GET", request.path)
            resp = conn.getresponse()
            raw = resp.read()
            reply.done = time.perf_counter()
            reply.status = resp.status
            reply.size = len(raw)
            if resp.status == 200:
                body = json.loads(raw)
                reply.cached = bool(body.get("cached"))
                reply.elapsed_ms = float(body.get("elapsed_ms", 0.0))
                reply.digest = body_digest(request.endpoint, body)
        except (OSError, http.client.HTTPException, ValueError):
            reply.done = time.perf_counter()
            reply.status = reply.status or -1
            conn.close()
            conn = http.client.HTTPConnection(HOST, self.port, timeout=60)
        return conn, reply

    def _run(self, connections: int, worker,
             speed: Optional[H.HostSpeed] = None) -> List[Reply]:
        """Run `worker` on each connection.  Meanwhile a third thread
        times the host-speed kernel ten times a second: the served path
        spans processes, so the kernel cannot run between the operations
        of one thread, and a process of its own would take a core from
        the daemon or the load generator on this 2-core box."""
        replies: List[Reply] = []
        lock = threading.Lock()
        finished = threading.Event()

        def sampler():
            while not finished.is_set():
                speed.sample()
                finished.wait(0.1)

        def body():
            conn = http.client.HTTPConnection(HOST, self.port, timeout=60)
            mine: List[Reply] = []
            try:
                worker(conn, mine)
            finally:
                conn.close()
                with lock:
                    replies.extend(mine)

        threads = [threading.Thread(target=body) for _ in range(connections)]
        watcher = threading.Thread(target=sampler) if speed else None
        for thread in threads:
            thread.start()
        if watcher is not None:
            watcher.start()
        for thread in threads:
            thread.join()
        finished.set()
        if watcher is not None:
            watcher.join()
        replies.sort(key=lambda r: r.sent)
        return replies

    def sequence(self, requests: List[Request]) -> List[Reply]:
        """One connection, the given requests in order (set-up)."""
        def worker(conn, mine):
            for request in requests:
                conn, reply = self._fire(conn, request, 0.0)
                mine.append(reply)
        return self._run(1, worker)

    def closed(self, connections: int, seconds: float,
               speed: Optional[H.HostSpeed] = None
               ) -> Tuple[List[Reply], float]:
        """Each connection sends its next request when the previous one
        completes."""
        start = time.perf_counter()
        deadline = start + seconds

        def worker(conn, mine):
            while time.perf_counter() < deadline:
                conn, reply = self._fire(conn, self.mix.take(), 0.0)
                mine.append(reply)

        replies = self._run(connections, worker, speed)
        return replies, time.perf_counter() - start

    def open_loop(self, rate: float, seconds: float,
                  speed: Optional[H.HostSpeed] = None,
                  connections: int = 2) -> List[Reply]:
        """Request i is due at i / rate whatever happened to the earlier
        ones; a free connection takes the next due request."""
        total = max(1, int(rate * seconds))
        claimed = [0]
        lock = threading.Lock()
        start = time.perf_counter() + 0.05

        def worker(conn, mine):
            while True:
                with lock:
                    i = claimed[0]
                    claimed[0] += 1
                if i >= total:
                    return
                due = start + i / rate
                # Wake a millisecond early and spin: how long this guest
                # takes to wake a sleeping thread is not the daemon's time.
                wait = due - time.perf_counter() - 0.001
                if wait > 0:
                    time.sleep(wait)
                while time.perf_counter() < due:
                    pass
                conn, reply = self._fire(conn, self.mix.take(), due)
                mine.append(reply)

        return self._run(connections, worker, speed)


def backlog_end_ms(replies: List[Reply]) -> float:
    """Mean lateness of the last tenth of an open-loop phase."""
    tail = replies[-max(1, len(replies) // 10):]
    return sum((r.sent - r.due) * 1000.0 for r in tail) / len(tail)


def histogram_delta(before: str, after: str, family: str
                    ) -> List[Tuple[float, float]]:
    """(upper bound, count in bucket) of one Prometheus histogram family
    between two scrapes, summed over its label sets."""
    pattern = re.compile(
        rf'^{family}_bucket\{{(?:[^}}]*,)?le="([^"]+)"\}} ([0-9.eE+-]+)',
        re.M)

    def cumulative(text: str) -> Dict[float, float]:
        out: Dict[float, float] = {}
        for bound, value in pattern.findall(text):
            le = float("inf") if bound in ("+Inf", "inf") else float(bound)
            out[le] = out.get(le, 0.0) + float(value)
        return out

    first, last = cumulative(before), cumulative(after)
    bounds = sorted(last)
    counts, previous = [], 0.0
    for bound in bounds:
        cum = last[bound] - first.get(bound, 0.0)
        counts.append((bound, cum - previous))
        previous = cum
    return counts


def histogram_quantile(buckets: List[Tuple[float, float]], q: float
                       ) -> Optional[float]:
    total = sum(count for _b, count in buckets)
    if total <= 0:
        return None
    target, seen, lower = q * total, 0.0, 0.0
    for bound, count in buckets:
        if count and seen + count >= target:
            if bound == float("inf"):
                return lower
            return lower + (bound - lower) * (target - seen) / count
        seen += count
        if bound != float("inf"):
            lower = bound
    return lower


class ServeOpen(Workload):
    name = "serve_open"

    def __init__(self, *args):
        super().__init__(*args)
        scale = (C.SMOKE_PAPERS / C.N_PAPERS) if self.smoke else 1.0
        self.mix = QueryMix(self.corpus, self.seed, scale)
        self.db_dir = os.path.join(self.work_dir, "sharded")
        self.daemon: Optional[Daemon] = None
        self.gen: Optional[LoadGen] = None
        self.statuses: Dict[int, int] = {}
        self.rss: Optional[float] = None

    def setup(self, layers: Layers) -> float:
        from repro.diskdb import save_database

        start = time.perf_counter()
        save_database(self.db, self.db_dir, shards=C.SERVE_SHARDS)
        saved = time.perf_counter()
        self.daemon = Daemon(self.db_dir)
        self.gen = LoadGen(self.daemon.port, self.mix)
        warm = self.gen.sequence(self.mix.warm_requests())
        self._count(warm)
        layers.values["serve.sharding.save_s"] = saved - start
        layers.values["serve.daemon.start_s"] = self.daemon.start_s
        return time.perf_counter() - start

    def _count(self, replies: List[Reply]) -> None:
        for reply in replies:
            self.statuses[reply.status] = \
                self.statuses.get(reply.status, 0) + 1

    def _record(self, measure: Measure, replies: List[Reply]) -> None:
        self._count(replies)
        for reply in replies:
            request = reply.request
            if reply.status != 200:
                measure.failed += 1
            cell = (f"{request.endpoint}/k{len(request.terms)}/"
                    f"{'hit' if reply.cached else 'miss'}")
            measure.main.add(cell, reply.service_ms)
            if reply.status == 200:
                key = request.key
                measure.ops[key] = measure.ops.get(key, 0) + 1
                known = measure.answers.setdefault(key, reply.digest)
                if known != reply.digest:
                    measure.unstable += 1

    def measure(self, seconds: float, log=None) -> Measure:
        measure = Measure()
        replies, elapsed = self.gen.closed(2, seconds, measure.speed)
        self._record(measure, replies)
        measure.busy_s = elapsed
        measure.throughput_ops = sum(1 for r in replies if r.status == 200)
        measure.replies = replies
        if log is not None:
            for reply in replies:
                log.op = reply.request.index + 1
                root = log.add("bench", "request", reply.sent, reply.done)
                inside = reply.elapsed_ms / 1000.0
                log.add("serve.transport", "client", reply.sent,
                        max(reply.sent, reply.done - inside), root)
                log.add("serve.daemon", reply.request.endpoint,
                        max(reply.sent, reply.done - inside), reply.done,
                        root)
        return measure

    def check(self, measure: Measure) -> int:
        """Every hot query's response, and a seeded sample of the
        never-repeated ones, equals the in-process answer."""
        failed = measure.unstable
        hot = set(self.mix.hot)
        keys = sorted(measure.answers)
        cold = [k for k in keys if k[1] not in hot]
        picks = np.random.default_rng(self.seed).permutation(len(cold))
        chosen = {cold[i] for i in picks[:C.COLD_CHECK_SAMPLE]}
        for key in keys:
            endpoint, terms = key
            if terms not in hot and key not in chosen:
                continue
            if endpoint == "topk":
                truth = H.score_multiset(
                    self.db.search_topk(list(terms), C.TOPK).results)
            else:
                truth = H.scored_set(self.db.search(list(terms)))
            if measure.answers[key] != truth:
                failed += measure.ops[key]
        return failed

    def peak_rss_mib(self) -> float:
        rss = self.daemon.peak_rss_mib() if self.daemon else None
        return rss if rss is not None else H.peak_rss_mib()

    def close(self) -> None:
        if self.daemon is not None:
            self.daemon.stop()

    # -- per-layer probes --------------------------------------------------

    def probes(self, layers: Layers, untraced: Measure, traced: Measure,
               log) -> None:
        gen, daemon = self.gen, self.daemon
        main = untraced.replies
        ok = [r for r in main if r.status == 200]
        hits = [r for r in ok if r.cached]
        misses = [r for r in ok if not r.cached]
        layers.set("serve.daemon.cache_hit_share", len(hits) / max(1, len(ok)))
        layers.set("serve.daemon.hit_p50_ms",
                   H.percentile([r.service_ms for r in hits], 50))
        layers.set("serve.daemon.miss_p50_ms",
                   H.percentile([r.service_ms for r in misses], 50))
        layers.set("serve.daemon.transport_ms", H.percentile(
            [r.service_ms - r.elapsed_ms for r in ok], 50))
        layers.set("serve.daemon.response_bytes_p50",
                   H.percentile([r.size for r in ok], 50))

        one_s = 0.5 if self.smoke else 2.0
        conn1, elapsed = gen.closed(1, one_s)
        self._count(conn1)
        qps1 = sum(1 for r in conn1 if r.status == 200) / elapsed
        layers.set("serve.conn1.throughput_qps", qps1)
        layers.set("serve.conn2_over_conn1",
                   untraced.throughput_qps() / qps1 if qps1 else None)

        before = daemon.metrics_text()
        best = 0
        for rate in C.RATE_LADDER_QPS:
            seconds = 1.0 if self.smoke \
                else max(2.0, C.MIN_P95_SAMPLES / rate)
            replies = gen.open_loop(rate, seconds)
            self._count(replies)
            p95 = H.percentile([r.latency_ms for r in replies], 95)
            backlog = backlog_end_ms(replies)
            layers.set(f"serve.rate{rate}.p95_ms", p95)
            if rate == C.RATE_LADDER_QPS[0]:
                layers.set(f"serve.rate{rate}.p50_ms", H.percentile(
                    [r.latency_ms for r in replies], 50))
                layers.set("loadgen.late_p95_ms", H.percentile(
                    [(r.sent - r.due) * 1000.0 for r in replies], 95))
            else:
                layers.set(f"serve.rate{rate}.backlog_end_ms", backlog)
            if (p95 <= C.LATENCY_LIMIT_MS and backlog <= C.BACKLOG_LIMIT_MS
                    and all(r.status == 200 for r in replies)):
                best = max(best, rate)
        layers.set("max_rate_ok_qps", best)
        after = daemon.metrics_text()
        layers.set("serve.daemon.queue_wait_p95_ms", histogram_quantile(
            histogram_delta(before, after, "repro_serve_queue_wait_ms"),
            0.95))
        layers.set("serve.daemon.rejects_429", self.statuses.get(429, 0))
        layers.set("serve.daemon.timeouts_504", self.statuses.get(504, 0))
        self.rss = daemon.peak_rss_mib()

        def pool_probe():
            pooled = Daemon(self.db_dir, ("--workers", "1"))
            try:
                pool_gen = LoadGen(pooled.port, self.mix)
                pool_gen.sequence(self.mix.warm_requests())
                start_text = pooled.metrics_text()
                replies, elapsed = pool_gen.closed(2, one_s)
                buckets = histogram_delta(start_text, pooled.metrics_text(),
                                          "repro_serve_shard_ms")
            finally:
                pooled.stop()
            return {"serve.workers1.throughput_qps":
                    sum(1 for r in replies if r.status == 200) / elapsed,
                    "serve.daemon.shard_p50_ms":
                    histogram_quantile(buckets, 0.50),
                    "serve.daemon.shard_p95_ms":
                    histogram_quantile(buckets, 0.95)}

        layers.probe(["serve.workers1.throughput_qps",
                      "serve.daemon.shard_p50_ms",
                      "serve.daemon.shard_p95_ms"], pool_probe)

        def merge_probe():
            from repro.diskdb import load_database

            sharded = load_database(self.db_dir, lazy=True, verify="lazy")
            gaps = []
            for terms in self.mix.hot[:16 if self.smoke else 40]:
                terms = list(terms)
                sharded.search_topk(terms, C.TOPK)          # warm columns
                _, whole = H.timed_ms(
                    lambda: sharded.search_topk(terms, C.TOPK))
                slowest = max(H.timed_ms(
                    lambda: shard.search_topk(terms, C.TOPK))[1]
                    for shard in sharded.shards)
                gaps.append(whole - slowest)
            return {"serve.merge.overhead_ms": H.median(gaps)}

        layers.probe(["serve.merge.overhead_ms"], merge_probe)
