"""Chaos harness for the serve path (`docs/RELIABILITY.md`).

`ChaosInjector` decides, per shard call, whether to inject a fault --
in the spirit of `reliability.faults.FaultInjector` but aimed at the
*pool boundary* instead of the disk:

* ``worker-kill``    the worker SIGKILLs itself mid-task, poisoning the
                     shard's `ProcessPoolExecutor` (exercises pool
                     supervision + rebuild).
* ``shard-error``    the worker raises a transient `InjectedFault`
                     (exercises in-deadline retries + breakers).
* ``shard-latency``  the worker sleeps before evaluating (exercises
                     hedged requests and deadline debiting).
* ``byte-fault``     the worker returns a structurally corrupt reply
                     (exercises parent-side payload validation).

Decisions are made in the **parent** and shipped to the worker inside
the payload, one seeded RNG stream *per shard*, so a run is
reproducible regardless of how the event loop interleaves concurrent
shard calls.  A ``script`` (list of kinds / Nones, consumed per shard)
overrides the RNG entirely for deterministic tests.

`run_chaos_drive` is the harness proper: it boots a daemon around a
`ShardedDatabase` with chaos enabled, drives a closed-loop workload,
waits for the daemon to heal, and returns a report asserting the
availability / degraded-marking / deadline / respawn invariants that
the bench chaos section and ``repro chaos`` both gate on.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import signal
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..reliability.errors import InjectedFault

__all__ = [
    "WORKER_KILL", "SHARD_ERROR", "SHARD_LATENCY", "BYTE_FAULT",
    "CHAOS_KINDS", "ChaosInjector", "apply_worker_fault", "corrupt_wire",
    "sample_queries", "run_chaos_drive", "format_chaos_report",
]

WORKER_KILL = "worker-kill"
SHARD_ERROR = "shard-error"
SHARD_LATENCY = "shard-latency"
BYTE_FAULT = "byte-fault"

#: Roll order is part of the seeded contract -- do not reorder.
CHAOS_KINDS = (WORKER_KILL, SHARD_ERROR, SHARD_LATENCY, BYTE_FAULT)

_SPEC_KEYS = {"kill", "error", "latency", "byte"}


class ChaosInjector:
    """Seeded per-shard-call fault decisions for the serve path.

    Each shard gets an independent RNG stream derived from ``seed`` so
    concurrent scatter legs cannot perturb each other's schedules.  Per
    call, one uniform draw per kind in `CHAOS_KINDS` order; the first
    that lands under its rate wins (at most one fault per call).
    """

    def __init__(self, kill_rate: float = 0.0, error_rate: float = 0.0,
                 latency_rate: float = 0.0, latency_ms: float = 25.0,
                 byte_fault_rate: float = 0.0, seed: int = 0,
                 script: Optional[Sequence[Optional[str]]] = None,
                 metrics=None):
        rates = {WORKER_KILL: kill_rate, SHARD_ERROR: error_rate,
                 SHARD_LATENCY: latency_rate, BYTE_FAULT: byte_fault_rate}
        for kind, rate in rates.items():
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{kind} rate must be in [0, 1]: {rate!r}")
        if latency_ms < 0:
            raise ValueError("latency_ms must be >= 0")
        if script is not None:
            for kind in script:
                if kind is not None and kind not in CHAOS_KINDS:
                    raise ValueError(f"unknown scripted fault: {kind!r}")
        self.rates = rates
        self.latency_ms = float(latency_ms)
        self.seed = seed
        self.script = list(script) if script is not None else None
        self.metrics = metrics
        self._rngs: Dict[int, random.Random] = {}
        self._scripts: Dict[int, List[Optional[str]]] = {}
        self.injected: Dict[str, int] = {kind: 0 for kind in CHAOS_KINDS}

    @classmethod
    def from_spec(cls, spec: str, metrics=None) -> "ChaosInjector":
        """Parse ``kill=0.05,latency=0.2,latency-ms=50,seed=3`` syntax.

        Keys: ``kill``, ``error``, ``latency``, ``byte`` (rates in
        [0, 1]), plus ``latency-ms`` and ``seed``.
        """
        kwargs: Dict[str, float] = {}
        for part in filter(None, (p.strip() for p in spec.split(","))):
            if "=" not in part:
                raise ValueError(f"bad chaos spec element {part!r} "
                                 "(want key=value)")
            key, _, value = part.partition("=")
            key = key.strip()
            if key in _SPEC_KEYS:
                kwargs[{"kill": "kill_rate", "error": "error_rate",
                        "latency": "latency_rate",
                        "byte": "byte_fault_rate"}[key]] = float(value)
            elif key == "latency-ms":
                kwargs["latency_ms"] = float(value)
            elif key == "seed":
                kwargs["seed"] = int(value)
            else:
                raise ValueError(f"unknown chaos spec key {key!r} (want "
                                 "kill/error/latency/byte/latency-ms/seed)")
        return cls(metrics=metrics, **kwargs)

    def describe(self) -> Dict[str, float]:
        out = {"kill": self.rates[WORKER_KILL],
               "error": self.rates[SHARD_ERROR],
               "latency": self.rates[SHARD_LATENCY],
               "byte": self.rates[BYTE_FAULT],
               "latency_ms": self.latency_ms, "seed": self.seed}
        return out

    def _record(self, kind: str) -> None:
        self.injected[kind] += 1
        if self.metrics is not None:
            self.metrics.counter("repro_chaos_injected_total",
                                 {"kind": kind}).inc()

    def next_fault(self, sid: int) -> Optional[str]:
        """Fault kind for the next call against shard `sid`, or None."""
        if self.script is not None:
            queue = self._scripts.setdefault(sid, list(self.script))
            if not queue:
                return None
            kind = queue.pop(0)
            if kind is not None:
                self._record(kind)
            return kind
        rng = self._rngs.setdefault(
            sid, random.Random(self.seed * 1_000_003 + sid))
        for kind in CHAOS_KINDS:
            if rng.random() < self.rates[kind]:
                self._record(kind)
                return kind
        return None

    def reset(self) -> None:
        self._rngs.clear()
        self._scripts.clear()
        self.injected = {kind: 0 for kind in CHAOS_KINDS}


def apply_worker_fault(fault: Optional[Tuple[str, float]]) -> Optional[str]:
    """Execute a parent-decided fault directive inside a pool worker.

    Returns the fault kind when it must be applied *after* evaluation
    (``byte-fault``), None otherwise.  Called at worker entry.
    """
    if fault is None:
        return None
    kind, latency_ms = fault
    if kind == WORKER_KILL:
        os.kill(os.getpid(), signal.SIGKILL)
    elif kind == SHARD_ERROR:
        raise InjectedFault("chaos: injected shard error", kind=SHARD_ERROR)
    elif kind == SHARD_LATENCY:
        time.sleep(latency_ms / 1000.0)
    elif kind == BYTE_FAULT:
        return kind
    return None


def corrupt_wire(wire: tuple) -> tuple:
    """Simulate a byte-fault on a shard reply (`ResultSet.to_wire`):
    lose the tail of the score column, so the parent's validation sees
    ragged arrays and rejects it (a *detectable* corruption -- silent
    wrong-answer corruption is out of scope without payload checksums,
    which `docs/RELIABILITY.md` notes as the boundary)."""
    rows, scores, witness = wire
    if not len(rows):
        return ("\x00garbage",)
    return rows, scores[:len(scores) // 2], witness


# ---------------------------------------------------------------------------
# Drive harness: boot a chaos-enabled daemon, load it, assert it heals.
# ---------------------------------------------------------------------------

def sample_queries(sharded, count: int = 8, seed: int = 0) -> List[str]:
    """Build a small workload from the corpus itself: frequent terms
    present in *every* shard (so queries exercise the full fan-out),
    paired up two per query."""
    dfs: Dict[str, int] = {}
    common: Optional[set] = None
    for shard in sharded.shards:
        idx = shard.columnar_index
        vocab = set(idx.vocabulary)
        common = vocab if common is None else (common & vocab)
        for term in vocab:
            dfs[term] = dfs.get(term, 0) + len(idx.term_postings(term))
    pool = sorted(common or dfs, key=lambda t: (-dfs[t], t))[:max(4, count)]
    if not pool:
        raise ValueError("corpus has no indexable terms to sample")
    rng = random.Random(seed)
    queries = []
    for _ in range(count):
        a, b = rng.choice(pool), rng.choice(pool)
        queries.append(a if a == b else f"{a} {b}")
    return queries


class _DaemonThread:
    """Run a ServeDaemon on a private event loop thread (context
    manager) for the chaos verb and tests."""

    def __init__(self, db, **kwargs):
        import asyncio

        from ..obs.metrics import MetricsRegistry
        from .daemon import ServeDaemon
        kwargs.setdefault("port", 0)
        self.metrics = kwargs.setdefault("metrics", MetricsRegistry())
        self.daemon = ServeDaemon(db, **kwargs)
        self._asyncio = asyncio
        self.loop = asyncio.new_event_loop()
        self._ready = threading.Event()
        self.thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        self._asyncio.set_event_loop(self.loop)
        self.loop.run_until_complete(self.daemon.start())
        self._ready.set()
        self.loop.run_forever()

    def __enter__(self):
        self.thread.start()
        if not self._ready.wait(30):
            raise RuntimeError("chaos daemon failed to start")
        return self

    def __exit__(self, *exc):
        self._asyncio.run_coroutine_threadsafe(
            self.daemon.stop(), self.loop).result(30)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(30)
        self.loop.close()


def _drive_chaos(port: int, paths: List[str], clients: int
                 ) -> List[Tuple[int, float, Optional[dict]]]:
    """Closed-loop keep-alive clients; returns (status, wall_ms, body)
    per request, bodies parsed so degraded marking can be audited."""
    results: List[Tuple[int, float, Optional[dict]]] = []
    lock = threading.Lock()

    def worker(chunk: List[str]) -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        local = []
        try:
            for path in chunk:
                t0 = time.perf_counter()
                try:
                    conn.request("GET", path)
                    resp = conn.getresponse()
                    raw = resp.read()
                    status = resp.status
                except Exception:
                    conn.close()
                    conn = http.client.HTTPConnection(
                        "127.0.0.1", port, timeout=60)
                    status, raw = 599, b""
                wall_ms = (time.perf_counter() - t0) * 1000.0
                try:
                    body = json.loads(raw) if raw else None
                except ValueError:
                    body = None
                local.append((status, wall_ms, body))
        finally:
            conn.close()
        with lock:
            results.extend(local)

    threads = [threading.Thread(target=worker, args=(paths[i::clients],))
               for i in range(clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return results


def _percentile(values: List[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
    return ordered[pos]


def run_chaos_drive(sharded, chaos: ChaosInjector, queries: List[str], *,
                    workers: int = 1, k: int = 10, requests: int = 200,
                    clients: int = 4, timeout_ms: float = 1500.0,
                    availability_target: float = 0.99,
                    settle_s: float = 10.0, daemon_kwargs: Optional[dict] = None
                    ) -> dict:
    """Boot a chaos-enabled daemon, drive it, wait for it to heal, and
    report against the self-healing acceptance invariants:

    * availability >= ``availability_target`` (429 sheds excluded, per
      `obs.slo` accounting);
    * every degraded 200 is marked ``degraded`` and carries a finite
      ``bound``;
    * no accepted request outlives its deadline budget
      (p99 <= 1.5x deadline + 100ms scheduling slack);
    * all killed pools are respawned and every breaker re-closes by end
      of run (``healed``), with rebuild counts matching the kills.

    Returns a report dict with ``ok`` / ``violations``; raises nothing.
    """
    kwargs = dict(daemon_kwargs or {})
    kwargs.setdefault("result_cache_size", 0)  # every request evaluates
    kwargs.setdefault("default_timeout_ms", timeout_ms)
    kwargs.setdefault("max_concurrency", max(2, clients))
    kwargs.setdefault("queue_limit", max(8, 4 * clients))
    kwargs["workers"] = workers
    kwargs["chaos"] = chaos
    paths = []
    for i in range(requests):
        q = queries[i % len(queries)].replace(" ", "+")
        paths.append(f"/topk?q={q}&k={k}")
    with _DaemonThread(sharded, **kwargs) as runner:
        port = runner.daemon.port
        t0 = time.perf_counter()
        outcomes = _drive_chaos(port, paths, clients)
        wall_s = time.perf_counter() - t0

        # Heal: probe with light traffic so half-open breakers get the
        # successes they need to close, and pools prove they respawned.
        probe = paths[0]
        healed = False
        deadline = time.monotonic() + settle_s
        while time.monotonic() < deadline:
            sup = runner.daemon.supervisor
            if sup.overall() == "ok":
                healed = True
                break
            _drive_chaos(port, [probe], 1)
            time.sleep(0.05)
        health = runner.daemon.supervisor.health()
        overall = runner.daemon.supervisor.overall()
        rebuilds = sum(runner.daemon.supervisor.rebuilds)
        trips = sum(b.trips_total for b in runner.daemon.supervisor.breakers)

    statuses = [s for s, _, _ in outcomes]
    total = len(statuses)
    shed = sum(1 for s in statuses if s == 429)
    bad = sum(1 for s in statuses if s == 504 or s >= 500)
    accepted = total - shed
    availability = 1.0 if accepted == 0 else (accepted - bad) / accepted
    accepted_lat = [ms for s, ms, _ in outcomes if s not in (429,)]
    degraded_bodies = [b for s, _, b in outcomes
                       if s == 200 and b and b.get("degraded")]
    unbounded = sum(1 for b in degraded_bodies
                    if b.get("bound") is None or not b.get("partial"))
    p99 = _percentile(accepted_lat, 0.99)
    deadline_budget_ms = 1.5 * timeout_ms + 100.0

    violations: List[str] = []
    if availability < availability_target:
        violations.append(
            f"availability {availability:.4f} < {availability_target}")
    if unbounded:
        violations.append(
            f"{unbounded} degraded responses missing a conservative bound")
    if p99 > deadline_budget_ms:
        violations.append(
            f"accepted p99 {p99:.1f}ms outlives deadline budget "
            f"{deadline_budget_ms:.0f}ms")
    if not healed:
        violations.append(f"daemon did not heal within {settle_s}s "
                          f"(overall={overall}, health={health})")
    if chaos.injected[WORKER_KILL] > 0 and rebuilds < 1:
        violations.append("workers were killed but no pool was rebuilt")

    return {
        "chaos": chaos.describe(),
        "requests": total,
        "wall_s": round(wall_s, 3),
        "qps": round(total / wall_s, 2) if wall_s > 0 else 0.0,
        "statuses": {str(s): statuses.count(s) for s in sorted(set(statuses))},
        "shed": shed,
        "bad": bad,
        "degraded_responses": len(degraded_bodies),
        "availability": round(availability, 6),
        "availability_target": availability_target,
        "accepted_p50_ms": round(_percentile(accepted_lat, 0.50), 3),
        "accepted_p99_ms": round(p99, 3),
        "deadline_budget_ms": deadline_budget_ms,
        "injected": dict(chaos.injected),
        "pool_rebuilds": rebuilds,
        "breaker_trips": trips,
        "healed": healed,
        "health": health,
        "violations": violations,
        "ok": not violations,
    }


def format_chaos_report(report: dict) -> str:
    lines = [
        "chaos drive: %(requests)d requests in %(wall_s).2fs "
        "(%(qps).1f qps)" % report,
        "  injected : " + ", ".join(
            f"{k}={v}" for k, v in report["injected"].items() if v)
        if any(report["injected"].values()) else "  injected : none",
        "  statuses : " + ", ".join(
            f"{k}={v}" for k, v in report["statuses"].items()),
        f"  availability: {report['availability']:.4f} "
        f"(target {report['availability_target']}, "
        f"{report['shed']} shed excluded)",
        f"  degraded : {report['degraded_responses']} responses "
        "(all marked + bounded)" if not any(
            "degraded" in v for v in report["violations"])
        else f"  degraded : {report['degraded_responses']} responses",
        f"  latency  : p50 {report['accepted_p50_ms']:.1f}ms  "
        f"p99 {report['accepted_p99_ms']:.1f}ms  "
        f"(budget {report['deadline_budget_ms']:.0f}ms)",
        f"  healing  : rebuilds={report['pool_rebuilds']} "
        f"breaker_trips={report['breaker_trips']} healed={report['healed']}",
    ]
    if report["violations"]:
        lines.append("  VIOLATIONS:")
        lines.extend(f"    - {v}" for v in report["violations"])
    else:
        lines.append("  all self-healing invariants hold")
    return "\n".join(lines)
