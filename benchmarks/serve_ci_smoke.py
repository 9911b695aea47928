"""CI smoke for the `repro serve` daemon (the `serve` workflow job).

Builds a sharded index via the CLI and runs the real daemon process in
two phases.  The thread phase (``--workers 0``) fires a mixed
concurrent workload (cold + warm + overloaded + bad requests) from
threaded HTTP clients, then scrapes ``/metrics`` and asserts the
serving invariants:

* admission / deadline / latency instruments are all present, and
  one ``repro_serve_shard_ms`` series per shard: every query takes the
  supervised per-shard call, on one thread at ``--workers 0``,
* the workload produced requests and at least one cache-driven rerun,
* a repeated ``/search`` is a result-cache hit whose body is the first
  reply's, byte for byte, apart from ``cached``, ``elapsed_ms`` and
  ``trace_id``,
* queue-depth and inflight gauges returned to 0,
* the daemon left its observability trail: one access-log JSONL record
  per request (shed/timed-out ones included), each carrying its
  stitched span tree under a ``request`` root with the record's trace
  id, every evaluated 200 one ``shard`` span per qualifying shard with
  the worker's tree under it, the same records behind
  ``/debug/traces``, ``repro trace
  --from-log --trace-id`` rendering one of them, and trace-id
  exemplars on the latency histogram,
* SIGTERM drains it and the process exits 0.

The pooled phase (``--workers 1``) takes a shard
worker's pid from the access log, SIGKILLs it, and asserts that the
next request still answers 200 with ``degraded: false`` (the pool was
rebuilt and the request retried on it), that
``repro_pool_rebuilds_total`` reads at least 1, that ``/healthz`` is
back to ``ok`` and that SIGTERM again exits 0.  The thread phase's
access log (``access-log-ci.jsonl``) is written to the working
directory so the CI job can upload it as an artifact.  Exits non-zero
(with the offending metric text) on any violation::

    PYTHONPATH=src python benchmarks/serve_ci_smoke.py
"""

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request

HOST = "127.0.0.1"
PORT = int(os.environ.get("REPRO_SERVE_SMOKE_PORT", "18473"))
QUERIES = ["w00000 w00001", "author00000", "w00002 w00000",
           "w00001 author00001", "w00003"]
ACCESS_LOG = "access-log-ci.jsonl"
SHARDS = 4
POOL_QUERY = "/topk?q=w00000+author00000&k=5"


def wait_healthy(timeout_s: float = 30.0) -> None:
    deadline = time.time() + timeout_s
    while time.time() < deadline:
        try:
            with urllib.request.urlopen(
                    f"http://{HOST}:{PORT}/healthz", timeout=2) as resp:
                body = json.loads(resp.read())
                assert body["status"] == "ok", body
                return
        except (OSError, ValueError):
            time.sleep(0.2)
    raise SystemExit("daemon never became healthy")


def check_cached_repeat() -> None:
    """One ``/search`` twice: the second reply is served from the result
    cache, and only the fields a response sets for itself differ."""
    replies = []
    for _ in range(2):
        with urllib.request.urlopen(
                f"http://{HOST}:{PORT}/search?q=w00002+author00000",
                timeout=5) as resp:
            replies.append(resp.read())
    first, second = (json.loads(raw) for raw in replies)
    assert first["results"], "the repeated query found nothing"
    assert first["cached"] is False and second["cached"] is True, \
        (first["cached"], second["cached"])
    same = dict(first, cached=True, elapsed_ms=second["elapsed_ms"],
                trace_id=second["trace_id"])
    assert json.dumps(same).encode("ascii") == replies[1], \
        "the cached reply differs from the evaluated one"


def fire_workload() -> dict:
    statuses = []
    lock = threading.Lock()

    def client(worker: int) -> None:
        conn = http.client.HTTPConnection(HOST, PORT, timeout=30)
        local = []
        try:
            for round_no in range(3):
                for i, q in enumerate(QUERIES):
                    path = f"/topk?q={q.replace(' ', '+')}&k=5"
                    if (worker + i) % 4 == 0:     # some complete sets
                        path = f"/search?q={q.replace(' ', '+')}"
                    if round_no == 2 and i == 0:  # some budgeted
                        path += "&timeout_ms=1&partial=1"
                    conn.request("GET", path)
                    resp = conn.getresponse()
                    resp.read()
                    local.append(resp.status)
        finally:
            conn.close()
        with lock:
            statuses.extend(local)

    threads = [threading.Thread(target=client, args=(w,))
               for w in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(120)
    # a malformed request must come back typed, not crash the daemon
    try:
        urllib.request.urlopen(f"http://{HOST}:{PORT}/topk?k=5", timeout=5)
    except urllib.error.HTTPError as exc:
        assert exc.code == 400, exc.code
    else:
        raise AssertionError("missing q should be a 400")
    return {"statuses": statuses}


def scrape_metrics() -> str:
    with urllib.request.urlopen(
            f"http://{HOST}:{PORT}/metrics", timeout=5) as resp:
        return resp.read().decode("utf-8")


def fetch_json(path: str) -> dict:
    with urllib.request.urlopen(
            f"http://{HOST}:{PORT}{path}", timeout=5) as resp:
        return json.loads(resp.read())


def read_jsonl(path: str) -> list:
    out = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                out.append(json.loads(line))
    return out


def gauge_value(text: str, name: str) -> float:
    match = re.search(rf"^{name} ([0-9.eE+-]+)$", text, re.M)
    assert match, f"{name} missing from /metrics"
    return float(match.group(1))


def stop(daemon: subprocess.Popen) -> None:
    """SIGTERM the daemon and require the drained exit status 0."""
    daemon.terminate()
    code = daemon.wait(timeout=30)
    assert code == 0, f"daemon exited {code} on SIGTERM"


def rebuilds_total(text: str) -> float:
    return sum(float(value) for value in re.findall(
        r"^repro_pool_rebuilds_total\{[^}]*\} ([0-9.eE+-]+)$", text, re.M))


def pooled_phase(db_dir: str, env: dict, tmp: str) -> float:
    """A ``--workers 1`` daemon heals a SIGKILLed shard worker: the next
    request is retried on the rebuilt pool and answers exactly."""
    access_log = os.path.join(tmp, "pool-access.jsonl")
    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", db_dir,
         "--port", str(PORT), "--workers", "1",
         "--result-cache-size", "0", "--access-log", access_log],
        env=env)
    try:
        wait_healthy()
        before = fetch_json(POOL_QUERY)
        assert before["results"] and before["degraded"] is False, before
        shards = read_jsonl(access_log)[-1]["shards"]
        pid = next(entry["pid"] for entry in shards if entry.get("pid"))
        os.kill(pid, signal.SIGKILL)
        after = fetch_json(POOL_QUERY)
        assert after["degraded"] is False, after
        assert after["results"] == before["results"], \
            "the retried request answered differently"
        rebuilds = rebuilds_total(scrape_metrics())
        assert rebuilds >= 1, "a killed worker was not rebuilt"
        health = fetch_json("/healthz")
        assert health["status"] == "ok", health
    except BaseException:
        daemon.kill()
        daemon.wait(timeout=30)
        raise
    stop(daemon)
    return rebuilds


def main() -> int:
    env = dict(os.environ)
    env.setdefault("PYTHONPATH", "src")
    if os.path.exists(ACCESS_LOG):
        os.unlink(ACCESS_LOG)
    with tempfile.TemporaryDirectory(prefix="repro-serve-ci-") as tmp:
        db_dir = os.path.join(tmp, "db")
        subprocess.run(
            [sys.executable, "-m", "repro", "generate", "dblp", db_dir,
             "--papers", "500", "--shards", str(SHARDS)],
            env=env, check=True, timeout=300)
        daemon = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", db_dir,
             "--host", HOST, "--port", str(PORT), "--workers", "0",
             "--max-concurrency", "4", "--queue-limit", "16",
             "--access-log", ACCESS_LOG],
            env=env)
        try:
            wait_healthy()
            check_cached_repeat()
            outcome = fire_workload()
            text = scrape_metrics()
            traces = fetch_json("/debug/traces?limit=10")
        except BaseException:
            daemon.kill()
            daemon.wait(timeout=30)
            raise
        stop(daemon)
        rebuilds = pooled_phase(db_dir, env, tmp)

    statuses = outcome["statuses"]
    assert statuses, "workload produced no responses"
    bad = [s for s in statuses if s not in (200, 429, 504)]
    assert not bad, f"untyped statuses under load: {bad}"
    assert statuses.count(200) > 0

    # admission / deadline / latency instruments present
    for needle in (
            'repro_serve_requests_total{outcome="ok"}',
            'repro_serve_rejects_total{reason="queue_full"}',
            'repro_serve_rejects_total{reason="deadline"}',
            "repro_serve_queue_wait_ms_count",
            "repro_serve_latency_ms_count"):
        assert needle in text, f"{needle} missing from /metrics"
    for sid in range(SHARDS):
        count = re.search(
            rf'^repro_serve_shard_ms_count\{{shard="{sid}"\}} ([0-9.]+)$',
            text, re.M)
        assert count, f"no repro_serve_shard_ms series for shard {sid}"
    assert sum(float(value) for value in re.findall(
        r"^repro_serve_shard_ms_count\{[^}]*\} ([0-9.]+)$", text, re.M)) > 0, \
        "a --workers 0 daemon made no shard call"
    ok = re.search(
        r'repro_serve_requests_total\{outcome="ok"\} ([0-9.]+)', text)
    assert ok and float(ok.group(1)) > 0, "no successful requests counted"

    # the queue drained: depth and inflight gauges are back to zero
    assert gauge_value(text, "repro_serve_queue_depth") == 0.0
    assert gauge_value(text, "repro_serve_inflight") == 0.0

    # observability trail: one access record per response (the extra
    # malformed probe logs a 400 too), matching the statuses seen
    records = read_jsonl(ACCESS_LOG)
    assert len(records) >= len(statuses), \
        f"access log has {len(records)} records for {len(statuses)} responses"
    logged = [r["status"] for r in records]
    for status in set(statuses):
        assert status in logged, f"status {status} never access-logged"
    assert any(r["status"] == 400 for r in records), \
        "bad request missing from access log"
    assert all(r["trace_id"] for r in records), \
        "access record without a trace id"

    # each record carries its stitched trace, and the ring behind
    # /debug/traces holds the same records
    for r in records:
        assert r["root"]["name"] == "request", r["trace_id"]
        assert r["root"]["tags"]["trace_id"] == r["trace_id"], \
            "a record's span tree carries another request's trace id"
    # a miss answered by the shards: one shard span per qualifying
    # shard (the record's fan-out), each over the worker's own tree
    misses = [r for r in records if r["status"] == 200
              and not r["cached"] and r["root"]["tags"].get("fanout")]
    assert misses, "no evaluated 200 in the access log"
    for r in misses:
        spans = [child for scatter in r["root"]["children"]
                 if scatter["name"] == "scatter"
                 for child in scatter["children"]]
        assert len(spans) == r["root"]["tags"]["fanout"], r["trace_id"]
        assert all(span["name"] == "shard" and span["children"]
                   and span["children"][0]["name"] == "shard_query"
                   for span in spans), r["trace_id"]
    assert traces["retained"] > 0 and traces["traces"], \
        "no stitched traces retained"

    # the offline reader renders one request from the file
    ok_id = next(r["trace_id"] for r in records if r["status"] == 200)
    shown = subprocess.run(
        [sys.executable, "-m", "repro", "trace", "--from-log", ACCESS_LOG,
         "--trace-id", ok_id], env=env, capture_output=True, text=True,
        timeout=60)
    assert shown.returncode == 0, shown.stderr
    assert any(line.startswith("request ")
               for line in shown.stdout.splitlines()), shown.stdout

    # latency exemplars link histogram buckets back to trace ids
    assert re.search(
        r'repro_serve_latency_ms_bucket\{[^}]*\} \d+ # \{trace_id="',
        text), "no trace-id exemplar on the latency histogram"

    print(f"serve smoke ok: {len(statuses)} responses "
          f"({statuses.count(200)} ok, {statuses.count(429)} shed, "
          f"{statuses.count(504)} deadline); "
          f"{len(records)} access records, {traces['retained']} traces "
          f"retained; pooled daemon healed a killed worker "
          f"({rebuilds:.0f} rebuild(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main())
