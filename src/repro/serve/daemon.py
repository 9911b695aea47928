"""Long-lived sharded query daemon (`repro serve`, `docs/SERVING.md`).

A single-threaded asyncio front-end owns the accept loop, admission
control and the scatter-gather merge; query evaluation runs either
in-process (``workers=0``) or on per-shard fork/copy-on-write process
pools (``workers=W``), the only process pools in the package: the
parent installs the shard databases in a module global *before* the
pools fork, so workers inherit index structures -- including the mmap'd
columns -- without any serialization, and a pool's workers only ever
touch their own shard (warm per-process block caches stay
shard-affine).

Admission control is explicit and typed (HTTP endpoints below):

* a **bounded accept queue** -- requests beyond ``max_concurrency``
  wait; once more than ``queue_limit`` are waiting, new arrivals are
  rejected immediately with 429 / ``queue_full`` instead of queueing
  unboundedly;
* **deadline propagation** -- the request budget starts at *arrival*
  (client ``timeout_ms`` or the configured default), so time spent
  waiting for an execution slot is charged against it; what remains is
  re-issued to every shard via `Deadline.to_wire`, and a budget that
  dies in the queue is rejected as 504 / ``deadline`` without running
  anything;
* the ``partial`` policy returns consistent merged partials: every
  shard's unreturned results score at most its reported bound, so the
  merge keeps only results above the largest bound and reports that
  bound.

The scatter is wrapped in a **self-healing layer** (see
``docs/RELIABILITY.md`` "Self-healing serving"):

* a `ShardSupervisor` owns the pools; a worker death
  (`BrokenProcessPool`) quarantines the shard, rebuilds its pool off
  the critical path, and the request degrades to the healthy shards;
* one `CircuitBreaker` per shard skips a sick shard outright
  (closed/open/half-open, consecutive-failure + error-rate trips,
  seeded-jitter backoff probes) instead of burning the deadline on it;
* transient shard failures (worker crash, injected fault, corrupt
  payload) get bounded **in-deadline retries** with
  `RetryPolicy`-shaped backoff, and optionally a **hedged** duplicate
  call after ``hedge_ms`` for tail stragglers -- every attempt
  re-issues `Deadline.to_wire`, so backoff and hedging debit the
  budget exactly like queue wait does;
* a degraded response is an honest partial: skipped shards contribute
  a conservative ``bound`` (max possible score of any result they
  could hold), the merge keeps only results above it, and the body is
  marked ``degraded: true``.

Endpoints: ``GET /search`` (complete, document order), ``GET /topk``
(best-first top-K), ``GET /healthz`` (per-shard liveness; 503 only
when *all* shards are down), ``GET /stats``, ``GET /metrics``
(Prometheus text), ``POST /cache/clear``.  Query parameters:
``q`` (required), ``semantics`` (elca|slca), ``k`` (topk only),
``timeout_ms``, ``partial`` (0|1).
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import signal
import time
import urllib.parse
from concurrent.futures import BrokenExecutor
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..algorithms.base import ELCA, SEMANTICS, ResultSet
from ..cache import QueryCache, result_key
from ..obs.account import merge_resources
from ..obs.distributed import (AccessLog, TailSampler, TraceContext,
                               TraceStore, stitch_trace)
from ..obs.metrics import MetricsRegistry, get_registry
from ..obs.slo import SLOConfig, SLOTracker
from ..obs.slowlog import SlowQueryLog
from ..obs.tracing import NULL_TRACER, Tracer
from ..reliability.deadline import Deadline
from ..reliability.errors import (DeadlineExceeded, InjectedFault,
                                  ShardPayloadError, WorkerCrashError)
from ..reliability.retry import RetryPolicy
from .chaos import BYTE_FAULT, ChaosInjector, apply_worker_fault, corrupt_wire
from .merge import ShardedDatabase, gather
from .supervisor import BreakerConfig, BreakerOpenError, ShardSupervisor

#: Shard id -> per-shard `XMLDatabase`, inherited copy-on-write by the
#: forked pool workers.  Populated completely before any pool is
#: created -- fork happens lazily on first submit, and a worker that
#: forked before the dict was full would serve the wrong world.
_SERVE_DBS: Dict[int, object] = {}

#: Worker-process-local state for metric shipping.  A forked worker
#: inherits the parent registry's pre-fork counter values copy-on-write;
#: shipping those verbatim would double-count everything the parent
#: recorded before the fork.  The first task a worker runs snapshots
#: the inherited counters as a baseline, and every response ships the
#: cumulative *delta* since that baseline, keyed by pid so the parent
#: can keep latest-per-worker and sum per shard.
_WORKER_STATE: Dict[str, Any] = {}


def _worker_baseline(db) -> None:
    pid = os.getpid()
    if _WORKER_STATE.get("pid") != pid:
        _WORKER_STATE["pid"] = pid
        _WORKER_STATE["baseline"] = dict(
            db.metrics.snapshot()["counters"])


def _worker_counter_deltas(db) -> Dict[str, float]:
    """Shard-local counter growth since this worker process forked."""
    base = _WORKER_STATE.get("baseline") or {}
    out: Dict[str, float] = {}
    for key, value in db.metrics.snapshot()["counters"].items():
        delta = value - base.get(key, 0.0)
        if delta > 0:
            out[key] = delta
    return out


def _worker_publish(db, endpoint: str, stats, partial: bool) -> None:
    """Record shard-local counters into the worker's (inherited)
    registry.  These never reach a scrape directly -- the worker has no
    HTTP endpoint -- they ride back to the parent as deltas and surface
    as ``repro_worker_*{shard=...}`` on the daemon's ``/metrics``."""
    reg = db.metrics
    reg.counter("repro_shard_requests_total",
                {"endpoint": endpoint}).inc()
    if stats is not None:
        if stats.tuples_scanned:
            reg.counter("repro_shard_tuples_scanned_total").inc(
                stats.tuples_scanned)
        if stats.cache_hits:
            reg.counter("repro_shard_cache_hits_total").inc(
                stats.cache_hits)
    if partial:
        reg.counter("repro_shard_deadline_partials_total").inc()


def _shard_extra(db, tracer, stats) -> Dict[str, Any]:
    """The observability sidecar shipped back with a shard response:
    the worker's span tree (wire dict form), the engine's retrieval
    counters, and the worker metric deltas."""
    root = tracer.last_root() if tracer.enabled else None
    extra: Dict[str, Any] = {
        "pid": os.getpid(),
        "trace": root.to_dict() if root is not None else None,
        "counters": _worker_counter_deltas(db),
    }
    if stats is not None:
        extra["retrievals"] = stats.tuples_scanned
        extra["emitted"] = stats.results_emitted
        extra["levels"] = stats.levels_processed
        if stats.resources:
            extra["account"] = stats.resources
    return extra


class AdmissionError(Exception):
    """Typed rejection: carries the HTTP status and machine-readable
    reason the client sees (429 ``queue_full`` / 504 ``deadline``)."""

    def __init__(self, status: int, reason: str, message: str):
        super().__init__(message)
        self.status = status
        self.reason = reason


def _serve_shard(payload):
    """Pool entry: one shard's slice of a scatter -- top-K when the
    payload's ``k`` is set, complete evaluation when it is ``None``.

    Top-K evaluates ``k+1`` shard-locally (one slot covers the dropped
    shard-local root).  Either way the reply ships the result arrays
    (`ResultSet.to_wire`, the shard-local root dropped) plus the
    partial flag and bound; exceptions return as values so one shard
    cannot lose the gather.  When the payload carries a sampled
    `TraceContext`, the engine runs under a worker-local `Tracer` and
    the span tree travels back in the 7th (sidecar) slot together with
    the retrieval counters and the worker's metric deltas.
    """
    sid, terms, semantics, k, wire, ctx_wire, fault = payload
    db = _SERVE_DBS.get(sid)
    if db is None:  # pragma: no cover - misuse guard
        return sid, None, False, None, 0.0, RuntimeError(
            "worker has no shard database; pools must be created by "
            "ServeDaemon after _SERVE_DBS is installed"), None
    deadline = Deadline.from_wire(wire) if wire else None
    ctx = TraceContext.from_wire(ctx_wire)
    _worker_baseline(db)
    tracer = Tracer() if ctx is not None and ctx.sampled else NULL_TRACER
    start = time.perf_counter()
    try:
        deferred = apply_worker_fault(fault)
        tags = {} if k is None else {"k": k}
        with tracer.span("shard_query", shard=sid, terms=list(terms),
                         **tags, pid=os.getpid(),
                         trace_id=ctx.trace_id if ctx else None) as qspan:
            if k is None:
                results, stats = db._complete_results(
                    terms, semantics, "join", deadline=deadline)
                partial, bound = stats.partial, None
            else:
                top = db._topk_result(terms, semantics, "topk-join", k + 1,
                                      deadline=deadline)
                results, stats = top.results, top.stats
                partial, bound = top.partial, top.bound
                if partial and bound is None:
                    bound = float("inf")
            qspan.tag(retrievals=stats.tuples_scanned,
                      emitted=stats.results_emitted,
                      levels=stats.levels_processed,
                      partial=stats.partial)
        reply = results.below_root().to_wire()
        if deferred == BYTE_FAULT:
            reply = corrupt_wire(reply)
        elapsed = (time.perf_counter() - start) * 1000.0
        _worker_publish(db, "search" if k is None else "topk", stats,
                        partial)
        return (sid, reply, partial, bound, elapsed, None,
                _shard_extra(db, tracer, stats))
    except Exception as exc:  # noqa: BLE001 - shipped back as a value
        import pickle

        try:
            pickle.dumps(exc)
        except Exception:
            exc = RuntimeError(f"{type(exc).__name__}: {exc}")
        return (sid, None, False, None,
                (time.perf_counter() - start) * 1000.0, exc,
                _shard_extra(db, tracer, None))


#: ``name{label="v"}`` keys from `MetricsRegistry.snapshot`, split back
#: into (name, labels) so worker counters can be re-registered in the
#: parent registry with a ``shard`` label added.
_METRIC_KEY_RE = re.compile(r"^(?P<name>[^{]+)(?:\{(?P<labels>.*)\})?$")
_LABEL_RE = re.compile(r'(\w+)="([^"]*)"')


def _parse_metric_key(key: str) -> Tuple[str, Dict[str, str]]:
    match = _METRIC_KEY_RE.match(key)
    if match is None:  # pragma: no cover - snapshot keys always match
        return key, {}
    labels = dict(_LABEL_RE.findall(match.group("labels") or ""))
    return match.group("name"), labels


class _RequestObs:
    """Per-request timing facts collected on the way to a stitched
    trace: where the queue wait went, what the scatter touched, what
    each shard reported.  Plain accumulator -- the daemon handles many
    requests concurrently on one thread, so each request carries its
    own instead of sharing tracer state."""

    __slots__ = ("shards", "scatter_ms", "merge_ms", "fanout", "mode",
                 "faults", "retries", "hedges", "degraded_shards",
                 "account")

    def __init__(self):
        self.shards: List[Dict[str, Any]] = []
        self.scatter_ms: Optional[float] = None
        self.merge_ms = 0.0
        self.fanout = 0
        self.mode = "inline"
        self.faults: List[str] = []     # chaos kinds injected this request
        self.retries = 0
        self.hedges = 0
        self.degraded_shards: List[int] = []
        # merged per-shard `ResourceAccount.as_dict` breakdown
        self.account: Optional[Dict[str, Any]] = None


class ServeDaemon:
    """The serving front-end: admission control + scatter-gather merge.

    ``workers=0`` evaluates in-process on a thread off the event loop
    (the right default on small machines -- no IPC tax); ``workers>=1``
    creates one fork-context pool of that width per shard.  Either way
    the event loop itself never evaluates a query: it only admits,
    dispatches, merges and serializes.

    Observability (on by default, ``tracing=False`` turns span
    collection off): every request gets a `TraceContext`, shard workers
    ship span trees back, and the daemon stitches one trace per request
    (tail-sampled into `TraceStore` / ``/debug/traces``), writes one
    `AccessLog` record (optionally JSONL at ``access_log_path``), feeds
    the `SLOTracker` behind ``/slo``, attaches trace-id exemplars to
    ``repro_serve_latency_ms``, and -- with ``slow_ms`` or an explicit
    ``slow_log`` -- records over-threshold requests with their stitched
    per-shard breakdown.
    """

    def __init__(self, db: ShardedDatabase, host: str = "127.0.0.1",
                 port: int = 8388, workers: int = 0,
                 max_concurrency: int = 8, queue_limit: int = 64,
                 default_timeout_ms: Optional[float] = None,
                 default_partial: bool = False,
                 result_cache_size: int = 1024,
                 metrics: Optional[MetricsRegistry] = None,
                 tracing: bool = True,
                 trace_capacity: int = 256,
                 trace_log_path: Optional[str] = None,
                 access_log_path: Optional[str] = None,
                 access_log_capacity: int = 1024,
                 tail_slow_ms: float = 250.0,
                 tail_sample_rate: float = 1.0,
                 slow_log: Optional[SlowQueryLog] = None,
                 slow_ms: Optional[float] = None,
                 slo_config: Optional[SLOConfig] = None,
                 breaker: Optional[BreakerConfig] = None,
                 retry_attempts: int = 2,
                 retry_backoff_ms: float = 10.0,
                 hedge_ms: Optional[float] = None,
                 chaos: Optional[ChaosInjector] = None,
                 drain_grace_ms: float = 5000.0,
                 supervision: bool = True,
                 capture_path: Optional[str] = None):
        self.db = db
        self.host = host
        self.port = port
        self.workers = int(workers)
        self.max_concurrency = max(1, int(max_concurrency))
        self.queue_limit = max(0, int(queue_limit))
        self.default_timeout_ms = default_timeout_ms
        self.default_partial = default_partial
        self.metrics = metrics if metrics is not None else get_registry()
        self.cache = QueryCache(result_cache_size)
        self.tracing = bool(tracing)
        self.traces = TraceStore(trace_capacity, path=trace_log_path)
        self.access_log = AccessLog(access_log_capacity,
                                    path=access_log_path)
        self.sampler = TailSampler(tail_slow_ms, tail_sample_rate)
        self.slo = SLOTracker(slo_config)
        if slow_log is None and slow_ms is not None:
            slow_log = SlowQueryLog(threshold_ms=slow_ms)
        self.slow_log = slow_log
        self.capture = None
        if capture_path:
            from .capture import WorkloadCapture
            self.capture = WorkloadCapture(capture_path, meta={
                "shards": db.n_shards, "workers": self.workers})
        # (shard, pid) -> the worker's latest cumulative counter deltas
        self._worker_metrics: Dict[Tuple[int, int], Dict[str, float]] = {}
        self._sem: Optional[asyncio.Semaphore] = None
        self._waiting = 0
        self._inflight_count = 0
        self._draining = False
        self._conn_tasks: set = set()
        self._server: Optional[asyncio.AbstractServer] = None
        self._shutdown = asyncio.Event()
        self._started = time.perf_counter()
        # self-healing layer
        self.supervision = bool(supervision)
        self.retry_policy = RetryPolicy(
            max_attempts=max(1, int(retry_attempts)),
            backoff_ms=retry_backoff_ms)
        self.hedge_ms = hedge_ms
        self.chaos = chaos
        if chaos is not None and self.workers < 1:
            raise ValueError("--chaos needs worker pools (workers >= 1); "
                             "inline evaluation has no shard boundary to "
                             "inject into")
        if chaos is not None and chaos.metrics is None:
            chaos.metrics = self.metrics
        self.drain_grace_ms = drain_grace_ms
        self.supervisor = ShardSupervisor(
            db.n_shards, self.workers,
            pool_factory=self._make_pool,
            breaker_config=breaker,
            metrics=self.metrics)
        # instruments (created eagerly so /metrics shows them at zero)
        reg = self.metrics
        self._queue_depth = reg.gauge("repro_serve_queue_depth")
        self._inflight = reg.gauge("repro_serve_inflight")
        self._queue_wait = reg.histogram("repro_serve_queue_wait_ms")
        self._latency = reg.histogram("repro_serve_latency_ms")
        for reason in ("queue_full", "deadline", "shutting_down"):
            reg.counter("repro_serve_rejects_total", {"reason": reason})
        for outcome in ("ok", "partial", "degraded", "error"):
            reg.counter("repro_serve_requests_total", {"outcome": outcome})
        reg.counter("repro_serve_degraded_total")
        for sid in range(db.n_shards):
            labels = {"shard": str(sid)}
            reg.histogram("repro_serve_shard_ms", labels)
            reg.counter("repro_serve_retries_total", labels)
            reg.counter("repro_serve_hedges_total", labels)
            reg.counter("repro_serve_shard_skipped_total", labels)

    # ------------------------------------------------------------------
    # pools
    # ------------------------------------------------------------------

    def _make_pool(self):
        """One fork-context executor; `_SERVE_DBS` must be installed
        first (`_start_pools` guarantees it, including on rebuilds --
        the supervisor's factory closure is only this method)."""
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        ctx = multiprocessing.get_context("fork")
        return ProcessPoolExecutor(max_workers=self.workers, mp_context=ctx)

    def _start_pools(self) -> None:
        if self.workers < 1:
            return
        import multiprocessing

        try:
            multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-fork platforms
            self.workers = 0
            self.supervisor = ShardSupervisor(self.db.n_shards, 0,
                                              metrics=self.metrics)
            return
        global _SERVE_DBS
        _SERVE_DBS = {sid: shard for sid, shard
                      in enumerate(self.db.shards)}
        self.supervisor.start()

    def _stop_pools(self) -> None:
        self.supervisor.stop()

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------

    async def _admit(self, deadline: Optional[Deadline]):
        """Pass admission control or raise a typed `AdmissionError`.

        Returns the queue wait in ms; the caller must release
        ``self._sem`` when the query finishes.
        """
        if self._waiting >= self.queue_limit:
            self.metrics.counter("repro_serve_rejects_total",
                                 {"reason": "queue_full"}).inc()
            raise AdmissionError(
                429, "queue_full",
                f"accept queue is full ({self._waiting} waiting, "
                f"limit {self.queue_limit}); retry later")
        waited = time.perf_counter()
        self._waiting += 1
        self._queue_depth.set(self._waiting)
        try:
            timeout_s = None
            if deadline is not None and deadline.budget_ms is not None:
                timeout_s = max(0.0, deadline.remaining_ms() / 1000.0)
            try:
                if timeout_s is None:
                    await self._sem.acquire()
                else:
                    await asyncio.wait_for(self._sem.acquire(), timeout_s)
            except asyncio.TimeoutError:
                self.metrics.counter("repro_serve_rejects_total",
                                     {"reason": "deadline"}).inc()
                raise AdmissionError(
                    504, "deadline",
                    "budget expired while waiting for an execution slot")
        finally:
            self._waiting -= 1
            self._queue_depth.set(self._waiting)
        wait_ms = (time.perf_counter() - waited) * 1000.0
        self._queue_wait.observe(wait_ms)
        if deadline is not None and deadline.expired():
            self._sem.release()
            self.metrics.counter("repro_serve_rejects_total",
                                 {"reason": "deadline"}).inc()
            raise AdmissionError(
                504, "deadline",
                "budget expired while waiting for an execution slot")
        return wait_ms

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------

    def _absorb_worker_counters(self, sid: int, pid: Optional[int],
                                counters: Dict[str, float]) -> None:
        """Fold one worker's cumulative counter deltas into the parent
        registry as ``repro_worker_*`` counters labelled by shard.

        The worker ships totals-since-fork, so the parent increments by
        the growth over the previous report from the same (shard, pid)
        -- monotonic in the parent even across interleaved reports from
        sibling workers, self-correcting when a pool respawns a worker
        (a fresh pid starts a fresh series)."""
        if pid is None or not counters:
            return
        prev = self._worker_metrics.get((sid, pid), {})
        for key, value in counters.items():
            grown = value - prev.get(key, 0.0)
            if grown <= 0:
                continue
            name, labels = _parse_metric_key(key)
            if name.startswith("repro_"):
                name = name[len("repro_"):]
            labels["shard"] = str(sid)
            self.metrics.counter("repro_worker_" + name, labels).inc(grown)
        self._worker_metrics[(sid, pid)] = dict(counters)

    def worker_metrics(self) -> Dict[str, Dict[str, float]]:
        """Latest worker counter deltas summed per shard (``/stats``)."""
        per_shard: Dict[str, Dict[str, float]] = {}
        for (sid, _pid), counters in sorted(self._worker_metrics.items()):
            agg = per_shard.setdefault(str(sid), {})
            for key, value in counters.items():
                agg[key] = agg.get(key, 0.0) + value
        return per_shard

    # -- self-healing shard calls --------------------------------------

    def _shard_score_bound(self, sid: int, terms: Sequence[str]) -> float:
        """Conservative cap on the score of *any* result a skipped shard
        could have contributed, computed parent-side (the parent's index
        structures are intact even while the shard's pool is dead).

        Per keyword, no occurrence in the shard scores above its max
        raw posting score (damping is ``base**delta <= 1``), and the
        combiner's `upper_bound` is monotone, so folding the per-term
        maxima through it bounds every candidate result in the shard.
        """
        idx = self.db.shards[sid].columnar_index
        per_term: List[float] = []
        for term in terms:
            plist = idx.term_postings(term)
            scores = plist.scores
            best = float(max(scores)) if len(scores) else 0.0
            per_term.append(best)
        return float(self.db.ranking.combiner.upper_bound(per_term))

    async def _submit_once(self, fn, sid: int, make_payload, fault,
                           obs: _RequestObs):
        """One pool submission, optionally hedged: if the primary has
        not answered within ``hedge_ms``, fire a clean duplicate on the
        same pool and take whichever finishes first (safe: shard
        queries are read-only).  The loser is left to finish and its
        result discarded."""
        pool = self.supervisor.pool(sid)
        if pool is None:
            raise WorkerCrashError(
                f"shard {sid} pool is {self.supervisor.pool_state(sid)}",
                shard=sid)
        loop = asyncio.get_running_loop()
        primary = loop.run_in_executor(pool, fn, make_payload(sid, fault))
        if self.hedge_ms is None:
            return await primary
        try:
            return await asyncio.wait_for(asyncio.shield(primary),
                                          self.hedge_ms / 1000.0)
        except asyncio.TimeoutError:
            pass
        self.metrics.counter("repro_serve_hedges_total",
                             {"shard": str(sid)}).inc()
        obs.hedges += 1
        hedge = loop.run_in_executor(pool, fn, make_payload(sid, None))
        done, pending = await asyncio.wait({primary, hedge},
                                           return_when=asyncio.FIRST_COMPLETED)
        for straggler in pending:
            # consume the loser's eventual result/exception silently
            straggler.add_done_callback(
                lambda f: f.exception() if not f.cancelled() else None)
        for winner in done:
            if winner.exception() is None:
                return winner.result()
        return (primary if primary in done else next(iter(done))).result()

    async def _call_shard(self, fn, sid: int, make_payload,
                          deadline: Optional[Deadline], obs: _RequestObs,
                          n_terms: int) -> Tuple:
        """One shard's supervised slice of the scatter: breaker gate,
        chaos decision, bounded in-deadline retries, pool healing.

        Always returns the worker outcome 7-tuple, its reply rebuilt as
        a validated `ResultSet` over the parent's node table -- a
        corrupt reply (chaos byte-fault, or a real serialization bug)
        is the typed, retryable `ShardPayloadError`, never merged; a
        shard that could not answer returns with the typed error in
        slot 5 (the merge degrades it), plus a bookkeeping dict for
        ``obs.shards``.
        """
        entry: Dict[str, Any] = {"shard": sid}
        started = time.perf_counter()
        breaker = (self.supervisor.breaker(sid) if self.supervision
                   else None)
        attempts = (self.retry_policy.max_attempts if self.supervision
                    else 1)
        last_exc: Optional[BaseException] = None
        for attempt in range(1, attempts + 1):
            entry["attempts"] = attempt
            if breaker is not None and not breaker.allow():
                self.metrics.counter("repro_serve_shard_skipped_total",
                                     {"shard": str(sid)}).inc()
                entry["skipped"] = True
                last_exc = BreakerOpenError(
                    f"shard {sid} circuit breaker is {breaker.state}",
                    shard=sid, reopen_in_ms=breaker.reopen_in_ms())
                break
            if (deadline is not None and deadline.budget_ms is not None
                    and deadline.expired()):
                if breaker is not None:
                    breaker.record_success()  # budget death, not shard sickness
                last_exc = last_exc or DeadlineExceeded(
                    "budget expired before shard dispatch")
                break
            fault = None
            if self.chaos is not None:
                fault = self.chaos.next_fault(sid)
                if fault is not None:
                    chaos_fault = (fault, self.chaos.latency_ms)
                    obs.faults.append(fault)
                    entry.setdefault("faults", []).append(fault)
                    fault = chaos_fault
            exc: Optional[BaseException] = None
            try:
                outcome = await self._submit_once(fn, sid, make_payload,
                                                  fault, obs)
            except BrokenExecutor:
                try:
                    self.supervisor.note_pool_broken(sid)
                    detail = "pool quarantined and rebuilt"
                except Exception as rebuild_exc:
                    detail = f"pool rebuild failed: {rebuild_exc}"
                exc = WorkerCrashError(
                    f"shard {sid} worker died mid-query; {detail}",
                    shard=sid)
            except OSError as os_exc:
                exc = os_exc
            else:
                worker_exc = outcome[5]
                if worker_exc is None:
                    try:
                        results = ResultSet.from_wire(
                            self.db.nodes, outcome[1], n_terms, shard=sid)
                    except ShardPayloadError as payload_exc:
                        exc = payload_exc
                    else:
                        if breaker is not None:
                            breaker.record_success()
                        return (sid, results, *outcome[2:]), entry
                elif isinstance(worker_exc, DeadlineExceeded):
                    if breaker is not None:
                        breaker.record_success()
                    return outcome, entry
                else:
                    exc = worker_exc
            last_exc = exc
            if breaker is not None:
                breaker.record_failure()
            if attempt >= attempts or not self.retry_policy.retryable(exc):
                break
            delay_ms = self.retry_policy.delay_ms(attempt)
            if (deadline is not None and deadline.budget_ms is not None
                    and deadline.remaining_ms() <= delay_ms):
                break  # the backoff alone would outlive the budget
            self.metrics.counter("repro_serve_retries_total",
                                 {"shard": str(sid)}).inc()
            obs.retries += 1
            await asyncio.sleep(delay_ms / 1000.0)
        elapsed = (time.perf_counter() - started) * 1000.0
        return (sid, None, False, None, elapsed, last_exc, None), entry

    async def _scatter(self, fn, shard_ids, make_payload,
                       deadline: Optional[Deadline], obs: _RequestObs,
                       n_terms: int) -> List[Tuple]:
        """Run one supervised call per qualifying shard, concurrently.

        Fills ``obs.shards`` with each shard's latency / retrieval
        counts / span tree and absorbs worker metric deltas.  Transient
        shard failures stay *in* the outcome list (slot 5) for the
        merge to degrade around; a worker `DeadlineExceeded` or an
        unexpected (non-transient) error is re-raised after the healthy
        shards' observability is recorded.
        """
        results = await asyncio.gather(*[
            self._call_shard(fn, sid, make_payload, deadline, obs, n_terms)
            for sid in shard_ids])
        outcomes: List[Tuple] = []
        first_deadline: Optional[BaseException] = None
        first_fatal: Optional[BaseException] = None
        for outcome, call_entry in results:
            sid, _results, partial, bound, elapsed, exc, extra = outcome
            self.metrics.histogram("repro_serve_shard_ms",
                                   {"shard": str(sid)}).observe(elapsed)
            entry: Dict[str, Any] = {"shard": sid, "elapsed_ms": elapsed,
                                     "partial": bool(partial)}
            entry.update(call_entry)
            if bound is not None and bound != float("inf"):
                entry["bound"] = bound
            if extra:
                self._absorb_worker_counters(sid, extra.get("pid"),
                                             extra.get("counters") or {})
                for key in ("retrievals", "emitted", "levels", "pid"):
                    if extra.get(key) is not None:
                        entry[key] = extra[key]
                if extra.get("account"):
                    obs.account = merge_resources(obs.account,
                                                  extra["account"])
                entry["trace"] = extra.get("trace")
            if exc is not None:
                entry["error"] = f"{type(exc).__name__}: {exc}"
                if isinstance(exc, DeadlineExceeded):
                    if first_deadline is None:
                        first_deadline = exc
                elif self.supervision and isinstance(
                        exc, (WorkerCrashError, InjectedFault,
                              ShardPayloadError, BreakerOpenError, OSError)):
                    entry["degraded"] = True
                    obs.degraded_shards.append(sid)
                elif first_fatal is None:
                    first_fatal = exc
            obs.shards.append(entry)
            outcomes.append(outcome)
        if first_fatal is not None:
            raise first_fatal
        if first_deadline is not None:
            raise first_deadline
        return outcomes

    async def _eval(self, terms: List[str], semantics: str,
                    k: Optional[int], deadline: Optional[Deadline],
                    ctx: Optional[TraceContext], obs: _RequestObs) -> dict:
        """Evaluate one admitted query -- top-``k``, or complete when
        ``k`` is ``None`` -- into its response payload."""
        db = self.db
        if self.workers < 1:
            def inline():
                if k is None:
                    results, stats = db.search(
                        terms, semantics, deadline=deadline, with_stats=True)
                    return results, stats, stats.partial, None
                top = db.search_topk(terms, k, semantics, deadline=deadline)
                return top.results, top.stats, top.partial, top.bound

            started = time.perf_counter()
            results, stats, partial, bound = \
                await asyncio.get_running_loop().run_in_executor(None, inline)
            obs.scatter_ms = (time.perf_counter() - started) * 1000.0
            obs.account = merge_resources(obs.account, stats.resources)
            return self._payload(results, partial, bound)
        if not db._covered(terms):
            return self._payload(ResultSet.empty(db.nodes, len(terms)), False,
                                 None)
        ctx_wire = (ctx.child("scatter").to_wire()
                    if ctx is not None else None)

        def make_payload(sid, fault):
            # A fresh wire per attempt: the *remaining* budget travels,
            # so retry backoff and hedge delay debit the deadline the
            # same way queue wait already does.
            wire = deadline.to_wire() if deadline is not None else None
            return (sid, terms, semantics, k, wire, ctx_wire, fault)

        shard_ids = [sid for sid, shard in enumerate(db.shards)
                     if all(t in shard.columnar_index for t in terms)]
        obs.mode = "pool"
        obs.fanout = len(shard_ids)
        started = time.perf_counter()
        outcomes = await self._scatter(_serve_shard, shard_ids, make_payload,
                                       deadline, obs, len(terms))
        merging = time.perf_counter()
        obs.scatter_ms = (merging - started) * 1000.0
        parts: List[ResultSet] = []
        partial, bound, degraded = False, None, False
        for outcome in outcomes:
            sid, results, shard_partial, shard_bound, _el, exc = outcome[:6]
            if exc is not None:
                # Skipped/failed shard: its results are missing, but no
                # missed result can outscore the shard's score cap --
                # fold that cap into the bound; what the healthy shards
                # returned is still exact.
                degraded = True
                shard_bound = self._shard_score_bound(sid, terms)
            else:
                parts.append(results)
                partial = partial or shard_partial
            if shard_bound is not None and (bound is None
                                            or shard_bound > bound):
                bound = shard_bound
        if k is None and deadline is not None and deadline.expired():
            # The root summary is cheap but unbudgeted work; skip it.
            partial, root = True, None
        else:
            root = db._root_result(terms, semantics)
        merged = gather(db.nodes, len(terms), parts, root, k, bound)
        obs.merge_ms = (time.perf_counter() - merging) * 1000.0
        return self._payload(merged, partial or degraded, bound,
                             degraded=degraded)

    def _payload(self, results: ResultSet, partial: bool,
                 bound: Optional[float], degraded: bool = False) -> dict:
        return {
            "results": results.payload(),
            "partial": bool(partial),
            "bound": (None if bound is None or bound == float("inf")
                      else bound),
            "degraded": bool(degraded),
        }

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------

    async def _handle_query(self, endpoint: str, params: dict) -> Tuple[int, dict]:
        """Admission, evaluation and — on every terminal path — the
        request's observability bookkeeping via the `finish` closure:
        stitch + tail-sample the trace, write the access-log record,
        feed the SLO tracker and the slow log."""
        arrival = time.perf_counter()
        wall = time.time()
        ctx = TraceContext() if self.tracing else None
        obs = _RequestObs()

        def finish(status, outcome, terms, semantics, k, *,
                   queue_wait_ms=0.0, result_count=0, partial=False,
                   bound=None, cached=False, degraded=False):
            elapsed_ms = (time.perf_counter() - arrival) * 1000.0
            trace_id = ctx.trace_id if ctx is not None else None
            if ctx is not None:
                extra = {"fanout": obs.fanout, "mode": obs.mode,
                         "result_count": result_count}
                if bound is not None:
                    extra["bound"] = bound
                if degraded:
                    extra["degraded"] = True
                    extra["degraded_shards"] = list(obs.degraded_shards)
                if obs.retries:
                    extra["retries"] = obs.retries
                if obs.hedges:
                    extra["hedges"] = obs.hedges
                trace = stitch_trace(
                    ctx.trace_id, endpoint, terms, semantics, k, status,
                    outcome, elapsed_ms, queue_wait_ms, shards=obs.shards,
                    scatter_ms=obs.scatter_ms, merge_ms=obs.merge_ms,
                    cached=cached, wall_time=wall, extra_tags=extra)
                if self.sampler.keep(status, outcome, elapsed_ms):
                    self.traces.add(trace)
                if (self.slow_log is not None and status == 200
                        and not cached):
                    self.slow_log.maybe_record(
                        elapsed_ms, terms, semantics, "serve-" + endpoint,
                        k, stats={
                            "trace_id": trace_id,
                            "queue_wait_ms": queue_wait_ms,
                            "scatter_ms": obs.scatter_ms,
                            "merge_ms": obs.merge_ms,
                            "fanout": obs.fanout,
                            "mode": obs.mode,
                            "shards": {
                                str(s["shard"]): {
                                    "elapsed_ms": s.get("elapsed_ms"),
                                    "retrievals": s.get("retrievals"),
                                    "partial": s.get("partial"),
                                } for s in obs.shards},
                        }, trace_root=trace["root"])
            self.access_log.record(
                wall_time=wall, trace_id=trace_id, endpoint=endpoint,
                terms=terms, semantics=semantics, k=k, status=status,
                outcome=outcome, cached=cached,
                queue_wait_ms=queue_wait_ms, elapsed_ms=elapsed_ms,
                result_count=result_count, partial=partial, bound=bound,
                degraded=degraded,
                chaos=(list(obs.faults) if obs.faults else None),
                account=obs.account,
                shards=[{key: value for key, value in shard.items()
                         if key != "trace"} for shard in obs.shards])
            self.slo.record(status, elapsed_ms, degraded=degraded)
            return trace_id, elapsed_ms

        query = params.get("q", "").strip()
        semantics = params.get("semantics", ELCA)
        k: Optional[int] = None

        def bad_request(message):
            trace_id, _ = finish(400, "bad_request",
                                 query.split() if query else [],
                                 semantics, k)
            return 400, {"error": {"type": "bad_request",
                                   "message": message},
                         "trace_id": trace_id}

        if not query:
            return bad_request("missing ?q=")
        if semantics not in SEMANTICS:
            return bad_request(f"unknown semantics {semantics!r}")
        if endpoint == "topk":
            try:
                k = int(params.get("k", "10"))
            except ValueError:
                return bad_request("k must be an integer")
            if k < 1:
                return bad_request("k must be >= 1")
        timeout_ms = self.default_timeout_ms
        if "timeout_ms" in params:
            try:
                timeout_ms = float(params["timeout_ms"])
            except ValueError:
                timeout_ms = -1.0
            if not timeout_ms >= 0:     # negative, NaN or not a number
                return bad_request("timeout_ms must be a number >= 0")
        partial_ok = self.default_partial
        if "partial" in params:
            partial_ok = params["partial"] not in ("0", "false", "")
        # The budget starts *now*, at admission -- queue wait spends it.
        deadline = Deadline.coerce(None, timeout_ms,
                                   "partial" if partial_ok else "raise")
        terms = self.db._terms(query)
        if self._draining:
            # SIGTERM drain: in-flight work finishes, new work gets a
            # typed rejection so clients fail over instead of hanging.
            self.metrics.counter("repro_serve_rejects_total",
                                 {"reason": "shutting_down"}).inc()
            trace_id, _ = finish(503, "shutting_down", terms, semantics, k)
            return 503, {"error": {"type": "shutting_down",
                                   "message": "daemon is draining; "
                                              "retry another replica"},
                         "trace_id": trace_id}
        cache_key = result_key(terms, semantics,
                               "serve-" + endpoint, k)
        payload = self.cache.get_results(cache_key)
        if payload is not None:
            self.metrics.counter("repro_serve_requests_total",
                                 {"outcome": "ok"}).inc()
            trace_id, elapsed_ms = finish(
                200, "ok", terms, semantics, k, cached=True,
                result_count=len(payload["results"]))
            if self.capture is not None:
                self.capture.record(endpoint, terms, semantics, k,
                                    payload["results"], elapsed_ms,
                                    cached=True, partial=payload["partial"])
            return 200, dict(payload, terms=terms, semantics=semantics,
                             cached=True, elapsed_ms=elapsed_ms,
                             trace_id=trace_id)
        try:
            queue_wait_ms = await self._admit(deadline)
        except AdmissionError as exc:
            waited_ms = (time.perf_counter() - arrival) * 1000.0
            if exc.reason == "deadline" and partial_ok:
                # The partial policy promises degraded answers instead
                # of failure; a budget spent entirely in the queue has
                # the degenerate consistent partial: nothing, no bound.
                self.metrics.counter("repro_serve_requests_total",
                                     {"outcome": "partial"}).inc()
                trace_id, elapsed_ms = finish(
                    200, "partial", terms, semantics, k,
                    queue_wait_ms=waited_ms, partial=True)
                return 200, dict(
                    self._payload(ResultSet.empty(self.db.nodes, len(terms)),
                                  True, None),
                    terms=terms, semantics=semantics, cached=False,
                    elapsed_ms=elapsed_ms, trace_id=trace_id)
            outcome = "shed" if exc.reason == "queue_full" else "deadline"
            trace_id, _ = finish(exc.status, outcome, terms, semantics, k,
                                 queue_wait_ms=waited_ms)
            return exc.status, {"error": {"type": exc.reason,
                                          "message": str(exc)},
                                "trace_id": trace_id}
        self._inflight.inc()
        self._inflight_count += 1
        try:
            payload = await self._eval(terms, semantics, k, deadline,
                                       ctx, obs)
        except DeadlineExceeded as exc:
            self.metrics.counter("repro_serve_requests_total",
                                 {"outcome": "error"}).inc()
            trace_id, _ = finish(504, "deadline", terms, semantics, k,
                                 queue_wait_ms=queue_wait_ms)
            return 504, {"error": {"type": "deadline",
                                   "message": str(exc)},
                         "trace_id": trace_id}
        except Exception as exc:  # noqa: BLE001 - typed 500
            self.metrics.counter("repro_serve_requests_total",
                                 {"outcome": "error"}).inc()
            trace_id, _ = finish(500, "error", terms, semantics, k,
                                 queue_wait_ms=queue_wait_ms)
            return 500, {"error": {"type": "internal",
                                   "message": f"{type(exc).__name__}: "
                                              f"{exc}"},
                         "trace_id": trace_id}
        finally:
            self._inflight.dec()
            self._inflight_count -= 1
            self._sem.release()
        degraded, partial = payload["degraded"], payload["partial"]
        outcome = ("degraded" if degraded
                   else "partial" if partial else "ok")
        self.metrics.counter("repro_serve_requests_total",
                             {"outcome": outcome}).inc()
        if degraded:
            self.metrics.counter("repro_serve_degraded_total").inc()
        # The payload is never mutated after this point: the cache
        # stores it and every response is a fresh dict around it.
        self.cache.put_results(cache_key, payload, partial=partial)
        trace_id, elapsed_ms = finish(
            200, outcome, terms, semantics, k,
            queue_wait_ms=queue_wait_ms,
            result_count=len(payload["results"]),
            partial=partial, bound=payload["bound"],
            degraded=degraded)
        if self.capture is not None:
            self.capture.record(endpoint, terms, semantics, k,
                                payload["results"], elapsed_ms,
                                partial=partial or degraded,
                                account=obs.account)
        # The latency exemplar points the histogram bucket back at this
        # request's stitched trace.
        self._latency.observe(elapsed_ms, exemplar=trace_id)
        return 200, dict(payload, terms=terms, semantics=semantics,
                         cached=False, elapsed_ms=elapsed_ms,
                         trace_id=trace_id)

    async def _dispatch(self, method: str, path: str) -> Tuple[int, str, str]:
        """Route one request; returns (status, content_type, body)."""
        parsed = urllib.parse.urlsplit(path)
        params = {key: values[-1] for key, values
                  in urllib.parse.parse_qs(parsed.query).items()}
        route = parsed.path.rstrip("/") or "/"
        if route == "/metrics":
            return 200, "text/plain; version=0.0.4", \
                self.metrics.render_prometheus()
        if route == "/healthz":
            # Per-shard liveness: "ok" needs every shard healthy; a
            # brownout (dead pool mid-rebuild, open breaker) reports
            # "degraded" but stays 200 -- load balancers should only
            # pull the node when *all* shards are down (503), or when
            # it is draining for shutdown.
            status = self.supervisor.overall()
            http_status = 200
            body = {"status": status, "shards": self.db.n_shards,
                    "workers": self.workers}
            if self.workers >= 1 or status != "ok":
                body["shard_health"] = self.supervisor.health()
            if self._draining:
                body["status"] = "draining"
                http_status = 503
            elif status == "down":
                http_status = 503
            return http_status, "application/json", json.dumps(body)
        if route == "/stats":
            return 200, "application/json", json.dumps({
                "shards": self.db.n_shards,
                "workers": self.workers,
                "manifest": self.db.manifest,
                "uptime_s": time.perf_counter() - self._started,
                "max_concurrency": self.max_concurrency,
                "queue_limit": self.queue_limit,
                "cache": self.cache.stats(),
                "tracing": {
                    "enabled": self.tracing,
                    "retained_traces": len(self.traces),
                    "traces_added": self.traces.added,
                    "traces_dropped": self.traces.dropped,
                    "access_log_records": len(self.access_log),
                    "access_log_written": self.access_log.written,
                    "slow_log_records": (len(self.slow_log)
                                         if self.slow_log is not None
                                         else None),
                },
                "worker_metrics": self.worker_metrics(),
                "supervision": {
                    "enabled": self.supervision,
                    "retry_attempts": self.retry_policy.max_attempts,
                    "hedge_ms": self.hedge_ms,
                    "chaos": (self.chaos.describe()
                              if self.chaos is not None else None),
                    "shards": self.supervisor.health(),
                    "pool_rebuilds": sum(self.supervisor.rebuilds),
                    "breaker_trips": sum(
                        b.trips_total for b in self.supervisor.breakers),
                },
            })
        if route == "/slo":
            return 200, "application/json", json.dumps(self.slo.report())
        if route == "/debug/traces":
            trace_id = params.get("trace_id")
            if trace_id:
                trace = self.traces.get(trace_id)
                if trace is None:
                    return 404, "application/json", json.dumps(
                        {"error": {"type": "not_found",
                                   "message": f"trace {trace_id} not "
                                              f"retained"}})
                return 200, "application/json", json.dumps(trace)
            try:
                limit = int(params.get("limit", "50"))
            except ValueError:
                limit = 50
            return 200, "application/json", json.dumps({
                "retained": len(self.traces),
                "added": self.traces.added,
                "dropped": self.traces.dropped,
                "traces": self.traces.summaries(limit),
            })
        if route == "/cache/clear":
            if method != "POST":
                return 405, "application/json", json.dumps(
                    {"error": {"type": "method_not_allowed",
                               "message": "POST /cache/clear"}})
            self.cache.clear()
            self.db.clear_caches()
            return 200, "application/json", json.dumps({"cleared": True})
        if route in ("/search", "/topk"):
            status, body = await self._handle_query(route[1:], params)
            return status, "application/json", json.dumps(body)
        return 404, "application/json", json.dumps(
            {"error": {"type": "not_found", "message": route}})

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        try:
            while True:
                try:
                    raw = await reader.readuntil(b"\r\n\r\n")
                except (asyncio.IncompleteReadError, ConnectionError):
                    return
                except asyncio.LimitOverrunError:
                    return
                except asyncio.CancelledError:
                    # stop() cancelling an idle keep-alive; end the
                    # task cleanly so asyncio.streams' done-callback
                    # doesn't log the cancellation as an error.
                    return
                head = raw.decode("latin-1", "replace")
                request_line, *header_lines = head.split("\r\n")
                parts = request_line.split(" ")
                if len(parts) < 2:
                    return
                method, path = parts[0], parts[1]
                headers = {}
                for line in header_lines:
                    if ":" in line:
                        name, _sep, value = line.partition(":")
                        headers[name.strip().lower()] = value.strip()
                try:
                    length = int(headers.get("content-length", "0") or 0)
                except ValueError:
                    length = -1
                if length < 0:
                    # Where the next request starts is unknowable: answer
                    # and close.
                    status, ctype, body = 400, "application/json", \
                        json.dumps({"error": {
                            "type": "bad_request",
                            "message": "Content-Length must be an "
                                       "integer >= 0"}})
                else:
                    if length:
                        await reader.readexactly(length)
                    status, ctype, body = await self._dispatch(method, path)
                close = (headers.get("connection", "").lower() == "close"
                         or self._draining or length < 0)
                payload = body.encode("utf-8")
                reason = {200: "OK", 400: "Bad Request", 404: "Not Found",
                          405: "Method Not Allowed",
                          429: "Too Many Requests", 500: "Internal "
                          "Server Error", 503: "Service Unavailable",
                          504: "Gateway Timeout"}.get(
                              status, "Status")
                writer.write(
                    f"HTTP/1.1 {status} {reason}\r\n"
                    f"Content-Type: {ctype}\r\n"
                    f"Content-Length: {len(payload)}\r\n"
                    f"Connection: {'close' if close else 'keep-alive'}"
                    "\r\n\r\n".encode("latin-1") + payload)
                await writer.drain()
                if close:
                    return
        finally:
            self._conn_tasks.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:  # pragma: no cover - teardown race
                pass

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        self._sem = asyncio.Semaphore(self.max_concurrency)
        self._shutdown = asyncio.Event()
        self._start_pools()
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self.port)
        if self.port == 0:
            self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self, drain: bool = True) -> None:
        """Stop serving; by default drain gracefully first.

        Drain order: stop accepting new connections, answer new queries
        on kept-alive connections with typed 503s, wait up to
        ``drain_grace_ms`` for queued + in-flight requests to reach a
        terminal status (200 / 504 per their own deadlines), then shut
        the pools down.  ``drain=False`` is the old hard stop.
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if drain:
            self._draining = True
            grace = time.perf_counter() + self.drain_grace_ms / 1000.0
            while ((self._inflight_count > 0 or self._waiting > 0)
                   and time.perf_counter() < grace):
                await asyncio.sleep(0.005)
        # Whatever connections remain are idle keep-alives (or past the
        # grace): cancel them so the loop can close without pending tasks.
        leftover = list(self._conn_tasks)
        for task in leftover:
            task.cancel()
        if leftover:
            await asyncio.gather(*leftover, return_exceptions=True)
        self._stop_pools()
        if self.capture is not None:
            self.capture.close()
        self._shutdown.set()

    async def run(self, ready=None) -> None:
        """Start, announce readiness and serve until SIGTERM/SIGINT."""
        await self.start()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(
                    signum, lambda: asyncio.ensure_future(self.stop()))
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        if ready is not None:
            ready(self.host, self.port)
        await self._shutdown.wait()


def serve(db: ShardedDatabase, **kwargs) -> None:
    """Blocking convenience wrapper: run a `ServeDaemon` until killed."""

    def announce(host: str, port: int) -> None:
        print(f"serving {db.n_shards} shard(s) on http://{host}:{port} "
              f"(workers={kwargs.get('workers', 0)})", flush=True)

    daemon = ServeDaemon(db, **kwargs)
    asyncio.run(daemon.run(ready=announce))
