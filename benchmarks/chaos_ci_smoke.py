"""CI smoke for the self-healing serve path (the `chaos` workflow job).

Builds a sharded index via the CLI, starts the real daemon process
with ``--workers 1`` and a seeded ``--chaos`` schedule (worker kills,
shard latency, injected errors, byte faults), hammers it with
concurrent clients, then asserts the self-healing invariants on the
live process:

* the schedule actually fired (``repro_chaos_injected_total`` > 0) and
  every worker kill was answered with a pool rebuild
  (``repro_pool_rebuilds_total`` >= 1 when kills were injected),
* the daemon healed: ``/healthz`` returns to ``ok`` (all pools ready,
  all breakers closed) after the storm,
* every response is typed (200/429/503/504 only) and every degraded
  200 is marked ``degraded`` with a conservative ``bound``,
* no accepted request outlives its deadline budget,
* SIGTERM drains gracefully: the process exits 0,
* availability holds: of the accepted requests (429 sheds excluded by
  design), at least ``AVAILABILITY_TARGET`` were not answered 5xx/504
  -- `repro.serve.chaos.run_chaos_drive`'s definition, counted from
  the statuses the clients saw.

The access log (``chaos-access-ci.jsonl``) and trace log
(``chaos-trace-ci.jsonl``) are written to the working directory so the
CI job can upload them as artifacts.  Exits non-zero on any
violation::

    PYTHONPATH=src python benchmarks/chaos_ci_smoke.py
"""

import http.client
import json
import os
import re
import subprocess
import sys
import tempfile
import threading
import time
import urllib.request

HOST = "127.0.0.1"
PORT = int(os.environ.get("REPRO_CHAOS_SMOKE_PORT", "18474"))
CHAOS_SPEC = ("kill=0.04,error=0.04,latency=0.12,latency-ms=30,"
              "byte=0.02,seed=5")
QUERIES = ["w00000 w00001", "author00000", "w00002 w00000",
           "w00001 author00001", "w00003"]
REQUESTS = 300
CLIENTS = 4
TIMEOUT_MS = 2000.0
AVAILABILITY_TARGET = 0.99
ACCESS_LOG = "chaos-access-ci.jsonl"
TRACE_LOG = "chaos-trace-ci.jsonl"


def fetch_json(path: str, timeout: float = 5.0) -> tuple:
    conn = http.client.HTTPConnection(HOST, PORT, timeout=timeout)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())
    finally:
        conn.close()


def wait_status(want: str, timeout_s: float = 30.0,
                probe: bool = False) -> dict:
    """Poll /healthz until its status is `want`; with ``probe`` also
    trickle real queries so half-open breakers see the successes they
    need to close."""
    deadline = time.time() + timeout_s
    last = None
    while time.time() < deadline:
        try:
            _status, body = fetch_json("/healthz")
            last = body
            if body.get("status") == want:
                return body
            if probe:
                q = QUERIES[0].replace(" ", "+")
                fetch_json(f"/topk?q={q}&k=5")
        except (OSError, ValueError):
            pass
        time.sleep(0.2)
    raise SystemExit(f"daemon never reached status={want!r}: {last}")


def fire_workload() -> list:
    outcomes = []
    lock = threading.Lock()

    def client(worker: int) -> None:
        conn = http.client.HTTPConnection(HOST, PORT, timeout=30)
        local = []
        try:
            for idx in range(worker, REQUESTS, CLIENTS):
                q = QUERIES[idx % len(QUERIES)].replace(" ", "+")
                start = time.perf_counter()
                try:
                    conn.request("GET", f"/topk?q={q}&k=5")
                    resp = conn.getresponse()
                    body = json.loads(resp.read())
                    status = resp.status
                except (OSError, ValueError):
                    conn.close()
                    conn = http.client.HTTPConnection(HOST, PORT,
                                                      timeout=30)
                    status, body = 599, None
                local.append((status,
                              (time.perf_counter() - start) * 1000.0,
                              body))
        finally:
            conn.close()
        with lock:
            outcomes.extend(local)

    threads = [threading.Thread(target=client, args=(w,))
               for w in range(CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(180)
    return outcomes


def scrape_metrics() -> str:
    with urllib.request.urlopen(
            f"http://{HOST}:{PORT}/metrics", timeout=5) as resp:
        return resp.read().decode("utf-8")


def metric_sum(text: str, name: str) -> float:
    total = 0.0
    seen = False
    for match in re.finditer(
            rf"^{name}(?:\{{[^}}]*\}})? ([0-9.eE+-]+)$", text, re.M):
        total += float(match.group(1))
        seen = True
    assert seen, f"{name} missing from /metrics"
    return total


def main() -> int:
    env = dict(os.environ)
    env.setdefault("PYTHONPATH", "src")
    for stale in (ACCESS_LOG, TRACE_LOG):
        if os.path.exists(stale):
            os.unlink(stale)
    with tempfile.TemporaryDirectory(prefix="repro-chaos-ci-") as tmp:
        db_dir = os.path.join(tmp, "db")
        subprocess.run(
            [sys.executable, "-m", "repro", "generate", "dblp", db_dir,
             "--papers", "400", "--shards", "2"],
            env=env, check=True, timeout=300)
        daemon = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", db_dir,
             "--port", str(PORT), "--workers", "1",
             "--max-concurrency", "4", "--queue-limit", "32",
             "--result-cache-size", "0",
             "--timeout-ms", str(TIMEOUT_MS), "--partial",
             "--chaos", CHAOS_SPEC,
             "--access-log", ACCESS_LOG, "--trace-log", TRACE_LOG],
            env=env)
        try:
            wait_status("ok", timeout_s=60)
            outcomes = fire_workload()
            # the daemon must heal: pools respawned, breakers closed
            health = wait_status("ok", timeout_s=30, probe=True)
            text = scrape_metrics()
        finally:
            daemon.terminate()   # SIGTERM: the drain path under test
            daemon.wait(timeout=60)
    assert daemon.returncode == 0, \
        f"SIGTERM drain exited {daemon.returncode}"

    statuses = [s for s, _, _ in outcomes]
    assert len(statuses) == REQUESTS, f"lost requests: {len(statuses)}"
    untyped = [s for s in statuses if s not in (200, 429, 503, 504)]
    assert not untyped, f"untyped statuses under chaos: {untyped}"

    # the schedule fired, and kills were answered with rebuilds
    injected = metric_sum(text, "repro_chaos_injected_total")
    assert injected > 0, "chaos schedule never fired"
    kill_match = re.search(
        r'repro_chaos_injected_total\{kind="worker-kill"\} ([0-9.]+)',
        text)
    kills = float(kill_match.group(1)) if kill_match else 0.0
    rebuilds = metric_sum(text, "repro_pool_rebuilds_total")
    if kills > 0:
        assert rebuilds >= 1, \
            f"{kills:.0f} workers killed but no pool rebuilt"
    for shard in health["shard_health"].values():
        assert shard["state"] == "healthy", health

    # degraded responses carry the contract: marked + bounded partials
    degraded = [b for s, _, b in outcomes
                if s == 200 and b and b.get("degraded")]
    for body in degraded:
        assert body.get("partial") and body.get("bound") is not None, \
            f"degraded response without a conservative bound: {body}"

    # no accepted request outlives its deadline budget
    accepted = [ms for s, ms, _ in outcomes if s == 200]
    budget_ms = 1.5 * TIMEOUT_MS + 500.0  # scheduling + client slack
    worst = max(accepted) if accepted else 0.0
    assert worst <= budget_ms, \
        f"request outlived its deadline: {worst:.0f}ms > {budget_ms:.0f}ms"

    # availability over the accepted requests: 429 sheds are the
    # overload policy working and spend no budget, 5xx/504 do
    shed = statuses.count(429)
    bad = sum(1 for s in statuses if s >= 500)
    accepted = len(statuses) - shed
    availability = 1.0 if accepted == 0 else (accepted - bad) / accepted
    assert availability >= AVAILABILITY_TARGET, \
        f"availability {availability:.4f} < {AVAILABILITY_TARGET}"

    good = statuses.count(200)
    print(f"chaos smoke ok: {REQUESTS} requests ({good} ok, "
          f"{len(degraded)} degraded+bounded, {shed} shed, "
          f"availability {availability:.4f}), "
          f"{injected:.0f} faults injected ({kills:.0f} kills, "
          f"{rebuilds:.0f} rebuilds), healed + drained cleanly")
    return 0


if __name__ == "__main__":
    sys.exit(main())
