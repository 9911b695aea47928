"""Long-lived sharded query daemon (`repro serve`, `docs/SERVING.md`).

A single-threaded asyncio front-end owns the accept loop, admission
control and the scatter-gather merge.  Every query takes one path: one
supervised call per qualifying shard (`_serve_shard`, its reply
rebuilt and validated by `ResultSet.from_wire`), then the root summary
and the merge.  ``workers`` decides only where a shard call runs: on
one in-process thread that all shards share (``workers=0``), or on a
per-shard fork/copy-on-write process pool of ``W`` workers
(``workers=W``), the only process pools in the package.  Each
executor's initializer hands its workers the daemon's shard databases,
so forked workers inherit index structures -- including the mmap'd
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
  re-issued to every shard via `Deadline.to_wire`, whose receiver also
  charges the time the call waited for its executor, and a budget that
  dies in the queue is rejected as 504 / ``deadline`` without running
  anything (a shard call still waiting for its executor then is
  withdrawn);
* the ``partial`` policy returns consistent merged partials: every
  shard's unreturned results score at most its reported bound, so the
  merge keeps only results above the largest bound and reports that
  bound.

The scatter is wrapped in a **self-healing layer** (see
``docs/RELIABILITY.md`` "Self-healing serving"):

* a `ShardSupervisor` owns the per-shard executors; a worker death
  (`BrokenProcessPool`, fork pools only) quarantines the shard,
  rebuilds its pool off the critical path, and the request degrades to
  the healthy shards;
* one `CircuitBreaker` per shard skips a sick shard outright
  (closed/open/half-open, consecutive-failure + error-rate trips,
  seeded-jitter backoff probes) instead of burning the deadline on it;
* transient shard failures (worker crash, shard I/O error, corrupt
  payload) get bounded **in-deadline retries** with
  `RetryPolicy`-shaped backoff -- every attempt re-issues
  `Deadline.to_wire`, so backoff debits the budget exactly like queue
  wait does;
* a degraded response is an honest partial: skipped shards contribute
  a conservative ``bound`` (max possible score of any result they
  could hold), the merge keeps only results above it, and the body is
  marked ``degraded: true``.

Endpoints: ``GET /search`` (complete, document order), ``GET /topk``
(best-first top-K), ``GET /healthz`` (per-shard liveness; 503 only
when *all* shards are down), ``GET /stats``, ``GET /metrics``
(Prometheus text), ``POST /cache/clear``.  Query parameters:
``q`` (required), ``semantics`` (elca|slca), ``k`` (topk only),
``timeout_ms``, ``partial`` (0|1); a blank parameter counts as absent.
A request may not carry a body: the daemon refuses a declared body
over `MAX_BODY_BYTES` with 413 before reading it.
"""

from __future__ import annotations

import asyncio
import json
import os
import pickle
import signal
import threading
import time
import urllib.parse
from concurrent.futures import (BrokenExecutor, ProcessPoolExecutor,
                                ThreadPoolExecutor)
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..algorithms.base import ELCA, SEMANTICS, ResultSet
from ..cache import QueryCache, result_key
from ..obs.account import accounting, merge_resources
from ..obs.distributed import AccessLog, stitch_trace
from ..obs.metrics import MetricsRegistry
from ..obs.tracing import Tracer
from ..reliability.deadline import Deadline
from ..reliability.errors import (DeadlineExceeded, ShardPayloadError,
                                  WorkerCrashError)
from ..reliability.retry import RetryPolicy
from .merge import ShardedDatabase, shard_answer
from .supervisor import BreakerConfig, BreakerOpenError, ShardSupervisor

#: ``.shards``: shard id -> per-shard `XMLDatabase` of the daemon whose
#: executor runs this thread.  Set by `_install_shards`, each shard
#: executor's initializer: a forked worker inherits the databases
#: copy-on-write, an in-process thread holds a reference, and two
#: daemons in one process never answer from each other's shards.
_SERVE_DBS = threading.local()

#: The largest request body the daemon will read and discard.  No route
#: takes a body, so anything larger is refused with 413 unread.
MAX_BODY_BYTES = 64 * 1024

#: Base wait before a shard call is retried (doubled per attempt, and
#: skipped when it would outlast the request's budget).
RETRY_BACKOFF_MS = 10.0


def _json(body: Any) -> bytes:
    """A JSON response body.  ``json.dumps`` escapes every non-ASCII
    character, so the text is ASCII."""
    return json.dumps(body).encode("ascii")


class _Answer(NamedTuple):
    """One answered query as the daemon's response cache keeps it.

    `fragment` is the answer half of the body -- ``"results": ...,
    "partial": ..., "bound": ..., "degraded": ...`` -- encoded once, when
    the miss is answered; a hit never serializes its results again.
    `result_count` is what a hit's bookkeeping reads.
    """

    fragment: bytes
    result_count: int

    @classmethod
    def encode(cls, payload: dict) -> "_Answer":
        return cls(_json(payload)[1:-1], len(payload["results"]))

    def body(self, **tail: Any) -> bytes:
        """The response: ``json.dumps(dict(payload, **tail))``, byte
        for byte, with only the per-request `tail` encoded here."""
        return b"".join((b"{", self.fragment, b", ", _json(tail)[1:]))


class AdmissionError(Exception):
    """Typed rejection: carries the HTTP status and machine-readable
    reason the client sees (429 ``queue_full`` / 504 ``deadline``)."""

    def __init__(self, status: int, reason: str, message: str):
        super().__init__(message)
        self.status = status
        self.reason = reason


def _install_shards(shards: Dict[int, object]) -> None:
    """Executor initializer: the thread it runs in serves `shards`."""
    _SERVE_DBS.shards = shards


def _serve_shard(payload):
    """Executor entry: one shard's slice of a scatter (`shard_answer`)
    -- top-K when the payload's ``k`` is set, complete evaluation when
    it is ``None``.

    The reply ships the result arrays (`ResultSet.to_wire`) plus the
    partial flag and bound; exceptions return as values so one shard
    cannot lose the gather.  The engine runs under a worker-local
    `Tracer`, its root tagged with the request's trace id; the 7th
    (sidecar) slot carries the span tree (dict form) and the engine's
    retrieval counters, which the daemon puts into the request's record.
    """
    sid, terms, semantics, k, wire, trace_id = payload
    tracer = Tracer()
    start = time.perf_counter()
    reply, partial, bound, error, stats = None, False, None, None, None
    try:
        tags = {} if k is None else {"k": k}
        with tracer.span("shard_query", shard=sid, terms=list(terms),
                         **tags, pid=os.getpid(),
                         trace_id=trace_id) as qspan:
            results, stats, partial, bound = shard_answer(
                _SERVE_DBS.shards[sid], terms, semantics, k,
                Deadline.from_wire(wire) if wire else None)
            qspan.tag(retrievals=stats.tuples_scanned,
                      emitted=stats.results_emitted,
                      levels=stats.levels_processed,
                      partial=stats.partial)
        reply = results.to_wire()
    except Exception as exc:  # noqa: BLE001 - shipped back as a value
        try:
            pickle.dumps(exc)
            error = exc
        except Exception:
            error = RuntimeError(f"{type(exc).__name__}: {exc}")
    root = tracer.last_root()
    extra: Dict[str, Any] = {
        "pid": os.getpid(),
        "trace": root.to_dict() if root is not None else None,
    }
    if error is None:
        extra.update(retrievals=stats.tuples_scanned,
                     emitted=stats.results_emitted,
                     levels=stats.levels_processed)
        if stats.resources:
            extra["account"] = stats.resources
    return (sid, reply, partial, bound,
            (time.perf_counter() - start) * 1000.0, error, extra)


class _RequestObs:
    """Per-request timing facts collected on the way to a stitched
    trace: where the queue wait went, what the scatter touched, what
    each shard reported.  Plain accumulator -- the daemon handles many
    requests concurrently on one thread, so each request carries its
    own instead of sharing tracer state."""

    __slots__ = ("shards", "scatter_ms", "merge_ms", "fanout",
                 "retries", "degraded_shards", "account")

    def __init__(self):
        self.shards: List[Dict[str, Any]] = []
        self.scatter_ms: Optional[float] = None
        self.merge_ms = 0.0
        self.fanout = 0
        self.retries = 0
        self.degraded_shards: List[int] = []
        # merged per-shard `ResourceAccount.as_dict` breakdown
        self.account: Optional[Dict[str, Any]] = None


class ServeDaemon:
    """The serving front-end: admission control + scatter-gather merge.

    Shard calls run on ``workers=0``'s one in-process thread (the right
    default on small machines -- no IPC tax), or on a fork-context
    process pool of ``workers`` per shard.  Either way the event loop
    itself never evaluates a query: it only admits, dispatches, merges
    and serializes.

    Observability is always on: every request gets a trace id, shard
    workers ship span trees back, and the daemon writes one record per
    request -- its access-log fields and the stitched trace -- into the
    bounded `AccessLog` behind ``/debug/traces`` (optionally JSONL at
    ``access_log_path``) and attaches trace-id exemplars to
    ``repro_serve_latency_ms`` in its own `MetricsRegistry`
    (``self.metrics``, behind ``/metrics``).  Supervision (breakers,
    in-deadline retries, degraded partials) is always on as well.
    """

    def __init__(self, db: ShardedDatabase, host: str = "127.0.0.1",
                 port: int = 8388, workers: int = 0,
                 max_concurrency: int = 8, queue_limit: int = 64,
                 default_timeout_ms: Optional[float] = None,
                 default_partial: bool = False,
                 result_cache_size: int = 1024,
                 access_log_path: Optional[str] = None,
                 breaker: Optional[BreakerConfig] = None,
                 retry_attempts: int = 2,
                 drain_grace_ms: float = 5000.0):
        self.db = db
        self.host = host
        self.port = port
        self.workers = int(workers)
        self.max_concurrency = max(1, int(max_concurrency))
        self.queue_limit = max(0, int(queue_limit))
        self.default_timeout_ms = default_timeout_ms
        self.default_partial = default_partial
        self.metrics = MetricsRegistry()
        self._thread: Optional[ThreadPoolExecutor] = None
        self.cache = QueryCache(result_cache_size)
        self.access_log = AccessLog(path=access_log_path)
        self._sem: Optional[asyncio.Semaphore] = None
        self._waiting = 0
        self._inflight_count = 0
        self._draining = False
        self._conn_tasks: set = set()
        self._server: Optional[asyncio.AbstractServer] = None
        self._shutdown = asyncio.Event()
        self._started = time.perf_counter()
        # self-healing layer
        self.retry_policy = RetryPolicy(
            max_attempts=max(1, int(retry_attempts)),
            backoff_ms=RETRY_BACKOFF_MS)
        self.drain_grace_ms = drain_grace_ms
        self.supervisor = ShardSupervisor(
            db.n_shards, self._make_pool,
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
        for sid in range(db.n_shards):
            reg.histogram("repro_serve_shard_ms", {"shard": str(sid)})

    # ------------------------------------------------------------------
    # pools
    # ------------------------------------------------------------------

    def _make_pool(self):
        """One shard's executor (the supervisor's factory, on start and
        on every rebuild), whose workers serve this daemon's shards: a
        fork-context process pool of ``workers`` per shard, or at
        ``workers=0`` one in-process thread that every shard shares.

        One thread because under the interpreter lock a second
        evaluating thread brings no parallelism, only contention with
        the event loop that answers cache hits (docs/SERVING.md).
        """
        shards = dict(enumerate(self.db.shards))
        if self.workers < 1:
            if self._thread is None:
                self._thread = ThreadPoolExecutor(
                    1, initializer=_install_shards, initargs=(shards,))
            return self._thread
        import multiprocessing

        return ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_install_shards, initargs=(shards,))

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
        per_term = [idx.term_postings(term).max_score() for term in terms]
        return float(self.db.ranking.combiner.upper_bound(per_term))

    async def _run_call(self, sid: int, payload, deadline):
        """One attempt at shard `sid`'s call: its outcome, or None when
        the budget runs out before the call starts (a call waiting for
        its executor is then withdrawn).  A started call is awaited: its
        deadline, charged by the wire for the wait, stops it."""
        if deadline is not None and deadline.expired():
            return None
        pool = self.supervisor.pool(sid)
        if pool is None:
            raise WorkerCrashError(f"shard {sid} pool is "
                                   f"{self.supervisor.pool_state(sid)}",
                                   shard=sid)
        future = pool.submit(_serve_shard, payload)
        withdrawn = []
        timer = None if deadline is None else asyncio.get_running_loop(
            ).call_later(max(0.0, deadline.remaining_ms()) / 1000.0,
                         lambda: future.cancel() and withdrawn.append(True))
        try:
            return await asyncio.wrap_future(future)
        except asyncio.CancelledError:
            if withdrawn:
                return None
            raise
        finally:
            if timer is not None:
                timer.cancel()

    async def _call_shard(self, sid: int, make_payload,
                          deadline: Optional[Deadline], obs: _RequestObs,
                          n_terms: int) -> Tuple:
        """One shard's supervised slice of the scatter: breaker gate,
        bounded in-deadline retries, pool healing.

        Always returns the worker outcome 7-tuple, its reply rebuilt as
        a validated `ResultSet` over the parent's node table -- a
        corrupt reply is the typed, retryable `ShardPayloadError`,
        never merged; a shard that could not answer returns with the
        typed error in slot 5 (the merge degrades it), plus a
        bookkeeping dict for ``obs.shards``.
        """
        entry: Dict[str, Any] = {"shard": sid}
        started = time.perf_counter()
        breaker = self.supervisor.breaker(sid)
        attempts = self.retry_policy.max_attempts
        last_exc: Optional[BaseException] = None
        for attempt in range(1, attempts + 1):
            entry["attempts"] = attempt
            if not breaker.allow():
                entry["skipped"] = True
                last_exc = BreakerOpenError(
                    f"shard {sid} circuit breaker is {breaker.state}",
                    shard=sid, reopen_in_ms=breaker.reopen_in_ms())
                break
            exc: Optional[BaseException] = None
            try:
                outcome = await self._run_call(sid, make_payload(sid),
                                               deadline)
            except BrokenExecutor:
                try:
                    self.supervisor.note_pool_broken(sid)
                    detail = "pool quarantined and rebuilt"
                except Exception as rebuild_exc:
                    detail = f"pool rebuild failed: {rebuild_exc}"
                exc = WorkerCrashError(
                    f"shard {sid} worker died mid-query; {detail}",
                    shard=sid)
            except OSError as call_exc:
                exc = call_exc
            else:
                if outcome is None:     # the budget ran out before it ran
                    breaker.record_success()  # budget death, not sickness
                    if last_exc is None and deadline.partial_ok:
                        # The worker's own answer to a spent budget: an
                        # empty prefix that vouches for no score.
                        return (sid, ResultSet.empty(self.db.nodes, n_terms),
                                True, float("inf"), 0.0, None, None), entry
                    last_exc = last_exc or DeadlineExceeded(
                        "budget expired before the shard call started")
                    break
                exc = outcome[5]
                if exc is None:
                    try:
                        results = ResultSet.from_wire(
                            self.db.nodes, outcome[1], n_terms, shard=sid)
                    except ShardPayloadError as payload_exc:
                        exc = payload_exc
                    else:
                        breaker.record_success()
                        return (sid, results, *outcome[2:]), entry
                elif isinstance(exc, DeadlineExceeded):
                    breaker.record_success()
                    return outcome, entry
            last_exc = exc
            breaker.record_failure()
            if attempt >= attempts or not self.retry_policy.retryable(exc):
                break
            delay_ms = self.retry_policy.delay_ms(attempt)
            if deadline is not None and deadline.remaining_ms() <= delay_ms:
                break  # the backoff alone would outlive the budget
            obs.retries += 1
            await asyncio.sleep(delay_ms / 1000.0)
        elapsed = (time.perf_counter() - started) * 1000.0
        return (sid, None, False, None, elapsed, last_exc, None), entry

    async def _scatter(self, shard_ids, make_payload,
                       deadline: Optional[Deadline], obs: _RequestObs,
                       n_terms: int) -> List[Tuple]:
        """Run one supervised call per qualifying shard, concurrently.

        Fills ``obs.shards`` with each shard's latency / retrieval
        counts / span tree.  Transient shard failures stay *in* the
        outcome list (slot 5) for the merge to degrade around; a
        worker `DeadlineExceeded` or an unexpected (non-transient) error
        is re-raised after the healthy shards' observability is
        recorded.
        """
        results = await asyncio.gather(*[
            self._call_shard(sid, make_payload, deadline, obs, n_terms)
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
                obs.account = merge_resources(obs.account,
                                              extra.pop("account", None))
                entry.update(extra)     # pid, counters, the span tree
            if exc is not None:
                entry["error"] = f"{type(exc).__name__}: {exc}"
                if isinstance(exc, DeadlineExceeded):
                    if first_deadline is None:
                        first_deadline = exc
                elif isinstance(exc, OSError):  # every typed shard failure
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
                    trace_id: str, obs: _RequestObs) -> dict:
        """Evaluate one admitted query -- top-``k``, or complete when
        ``k`` is ``None`` -- into its response payload."""
        db = self.db
        if not db._covered(terms):
            return self._payload(ResultSet.empty(db.nodes, len(terms)), False,
                                 None)

        def make_payload(sid):
            # A fresh wire per attempt: retry backoff debits the budget
            # as queue wait does, and so does the executor's queue.
            wire = deadline.to_wire() if deadline is not None else None
            return (sid, terms, semantics, k, wire, trace_id)

        shard_ids = [sid for sid, shard in enumerate(db.shards)
                     if all(t in shard.columnar_index for t in terms)]
        obs.fanout = len(shard_ids)
        started = time.perf_counter()
        outcomes = await self._scatter(shard_ids, make_payload, deadline, obs,
                                       len(terms))
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
        # The root protocol's column touches run here, in the daemon.
        with accounting() as account:
            merged, skipped = db._gather(terms, semantics, parts, k, bound,
                                         deadline)
        obs.account = merge_resources(obs.account, account.as_dict())
        obs.merge_ms = (time.perf_counter() - merging) * 1000.0
        return self._payload(merged, partial or skipped or degraded, bound,
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

    async def _handle_query(self, endpoint: str, params: dict
                            ) -> Tuple[int, bytes]:
        """Admission, evaluation and — on every terminal path — the
        request's observability bookkeeping via the `finish` closure:
        stitch the trace into the request's access-log record and, for
        a 200, feed the latency histogram."""
        arrival = time.perf_counter()
        wall = time.time()
        trace_id = os.urandom(8).hex()
        obs = _RequestObs()

        def finish(status, outcome, terms, semantics, k, *,
                   queue_wait_ms=0.0, result_count=0, partial=False,
                   bound=None, cached=False, degraded=False):
            elapsed_ms = (time.perf_counter() - arrival) * 1000.0
            extra = {"fanout": obs.fanout, "result_count": result_count}
            if bound is not None:
                extra["bound"] = bound
            if degraded:
                extra["degraded"] = True
                extra["degraded_shards"] = list(obs.degraded_shards)
            if obs.retries:
                extra["retries"] = obs.retries
            root = stitch_trace(
                trace_id, endpoint, terms, semantics, k, status,
                outcome, elapsed_ms, queue_wait_ms, shards=obs.shards,
                scatter_ms=obs.scatter_ms, merge_ms=obs.merge_ms,
                cached=cached, extra_tags=extra)
            self.access_log.record(
                wall_time=wall, trace_id=trace_id, endpoint=endpoint,
                terms=terms, semantics=semantics, k=k, status=status,
                outcome=outcome, cached=cached,
                queue_wait_ms=queue_wait_ms, elapsed_ms=elapsed_ms,
                result_count=result_count, partial=partial, bound=bound,
                degraded=degraded, account=obs.account,
                shards=[{key: value for key, value in shard.items()
                         if key != "trace"} for shard in obs.shards],
                root=root)
            if status == 200:
                # The latency exemplar points the histogram bucket back
                # at this request's stitched trace.
                self._latency.observe(elapsed_ms, exemplar=trace_id)
            return elapsed_ms

        query = params.get("q", "").strip()
        semantics = params.get("semantics", ELCA)
        k: Optional[int] = None

        def bad_request(message):
            finish(400, "bad_request", query.split() if query else [],
                   semantics, k)
            return 400, _json({"error": {"type": "bad_request",
                                         "message": message},
                               "trace_id": trace_id})

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
            partial_ok = params["partial"] not in ("0", "false")
        # The budget starts *now*, at admission -- queue wait spends it.
        deadline = Deadline.coerce(None, timeout_ms,
                                   "partial" if partial_ok else "raise")
        terms = self.db._terms(query)
        if self._draining:
            # SIGTERM drain: in-flight work finishes, new work gets a
            # typed rejection so clients fail over instead of hanging.
            self.metrics.counter("repro_serve_rejects_total",
                                 {"reason": "shutting_down"}).inc()
            finish(503, "shutting_down", terms, semantics, k)
            return 503, _json({"error": {"type": "shutting_down",
                                         "message": "daemon is draining; "
                                                    "retry another replica"},
                               "trace_id": trace_id})
        cache_key = result_key(terms, semantics,
                               "serve-" + endpoint, k)
        answer = self.cache.get_results(cache_key)
        if answer is not None:
            self.metrics.counter("repro_serve_requests_total",
                                 {"outcome": "ok"}).inc()
            elapsed_ms = finish(
                200, "ok", terms, semantics, k, cached=True,
                result_count=answer.result_count)
            return 200, answer.body(terms=terms, semantics=semantics,
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
                elapsed_ms = finish(
                    200, "partial", terms, semantics, k,
                    queue_wait_ms=waited_ms, partial=True)
                return 200, _json(dict(
                    self._payload(ResultSet.empty(self.db.nodes, len(terms)),
                                  True, None),
                    terms=terms, semantics=semantics, cached=False,
                    elapsed_ms=elapsed_ms, trace_id=trace_id))
            outcome = "shed" if exc.reason == "queue_full" else "deadline"
            finish(exc.status, outcome, terms, semantics, k,
                   queue_wait_ms=waited_ms)
            return exc.status, _json({"error": {"type": exc.reason,
                                                "message": str(exc)},
                                      "trace_id": trace_id})
        self._inflight.inc()
        self._inflight_count += 1
        try:
            payload = await self._eval(terms, semantics, k, deadline,
                                       trace_id, obs)
        except DeadlineExceeded as exc:
            self.metrics.counter("repro_serve_requests_total",
                                 {"outcome": "error"}).inc()
            finish(504, "deadline", terms, semantics, k,
                   queue_wait_ms=queue_wait_ms)
            return 504, _json({"error": {"type": "deadline",
                                         "message": str(exc)},
                               "trace_id": trace_id})
        except Exception as exc:  # noqa: BLE001 - typed 500
            self.metrics.counter("repro_serve_requests_total",
                                 {"outcome": "error"}).inc()
            finish(500, "error", terms, semantics, k,
                   queue_wait_ms=queue_wait_ms)
            return 500, _json({"error": {"type": "internal",
                                         "message": f"{type(exc).__name__}: "
                                                    f"{exc}"},
                               "trace_id": trace_id})
        finally:
            self._inflight.dec()
            self._inflight_count -= 1
            self._sem.release()
        degraded, partial = payload["degraded"], payload["partial"]
        outcome = ("degraded" if degraded
                   else "partial" if partial else "ok")
        self.metrics.counter("repro_serve_requests_total",
                             {"outcome": outcome}).inc()
        answer = _Answer.encode(payload)
        self.cache.put_results(cache_key, answer, partial=partial)
        elapsed_ms = finish(
            200, outcome, terms, semantics, k,
            queue_wait_ms=queue_wait_ms,
            result_count=answer.result_count,
            partial=partial, bound=payload["bound"],
            degraded=degraded)
        return 200, answer.body(terms=terms, semantics=semantics,
                                cached=False, elapsed_ms=elapsed_ms,
                                trace_id=trace_id)

    async def _dispatch(self, method: str, path: str
                        ) -> Tuple[int, str, bytes]:
        """Route one request; returns (status, content_type, body)."""
        parsed = urllib.parse.urlsplit(path)
        params = {key: values[-1] for key, values
                  in urllib.parse.parse_qs(parsed.query).items()}
        route = parsed.path.rstrip("/") or "/"
        if route == "/metrics":
            return 200, "text/plain; version=0.0.4", \
                self.metrics.render_prometheus().encode("utf-8")
        if route == "/healthz":
            # Per-shard liveness: "ok" needs every shard healthy; a
            # brownout (dead pool mid-rebuild, open breaker) reports
            # "degraded" but stays 200 -- load balancers should only
            # pull the node when *all* shards are down (503), or when
            # it is draining for shutdown.
            status = self.supervisor.overall()
            http_status = 200
            body = {"status": status, "shards": self.db.n_shards,
                    "workers": self.workers,
                    "shard_health": self.supervisor.health()}
            if self._draining:
                body["status"] = "draining"
                http_status = 503
            elif status == "down":
                http_status = 503
            return http_status, "application/json", _json(body)
        if route == "/stats":
            return 200, "application/json", _json({
                "shards": self.db.n_shards,
                "workers": self.workers,
                "manifest": self.db.manifest,
                "uptime_s": time.perf_counter() - self._started,
                "max_concurrency": self.max_concurrency,
                "queue_limit": self.queue_limit,
                "cache": self.cache.stats(),
                "tracing": {
                    "retained_traces": len(self.access_log),
                    "traces_added": self.access_log.added,
                    "traces_dropped": self.access_log.dropped,
                },
                "supervision": {
                    "retry_attempts": self.retry_policy.max_attempts,
                    "shards": self.supervisor.health(),
                    "pool_rebuilds": sum(self.supervisor.rebuilds),
                    "breaker_trips": sum(
                        b.trips_total for b in self.supervisor.breakers),
                },
            })
        if route == "/debug/traces":
            trace_id = params.get("trace_id")
            if trace_id:
                trace = self.access_log.get(trace_id)
                if trace is None:
                    return 404, "application/json", _json(
                        {"error": {"type": "not_found",
                                   "message": f"trace {trace_id} not "
                                              f"retained"}})
                return 200, "application/json", _json(trace)
            try:
                limit = int(params.get("limit", "50"))
            except ValueError:
                limit = -1
            if limit < 0:
                return 400, "application/json", _json(
                    {"error": {"type": "bad_request",
                               "message": "limit must be an integer >= 0"}})
            return 200, "application/json", _json({
                "retained": len(self.access_log),
                "added": self.access_log.added,
                "dropped": self.access_log.dropped,
                "traces": self.access_log.summaries(limit),
            })
        if route == "/cache/clear":
            if method != "POST":
                return 405, "application/json", _json(
                    {"error": {"type": "method_not_allowed",
                               "message": "POST /cache/clear"}})
            self.cache.clear()
            return 200, "application/json", _json({"cleared": True})
        if route in ("/search", "/topk"):
            status, body = await self._handle_query(route[1:], params)
            return status, "application/json", body
        return 404, "application/json", _json(
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
                # A body that is not read leaves the next request's
                # start unknowable: answer and close.
                unread = not 0 <= length <= MAX_BODY_BYTES
                if length < 0:
                    status, ctype, body = 400, "application/json", \
                        _json({"error": {
                            "type": "bad_request",
                            "message": "Content-Length must be an "
                                       "integer >= 0"}})
                elif unread:
                    status, ctype, body = 413, "application/json", \
                        _json({"error": {
                            "type": "payload_too_large",
                            "message": f"request body of {length} bytes; "
                                       f"the limit is {MAX_BODY_BYTES}"}})
                else:
                    if length:
                        try:
                            await reader.readexactly(length)
                        except (asyncio.IncompleteReadError,
                                ConnectionError, asyncio.CancelledError):
                            return  # hung up mid-body, as in the head
                    status, ctype, body = await self._dispatch(method, path)
                close = (headers.get("connection", "").lower() == "close"
                         or self._draining or unread)
                reason = {200: "OK", 400: "Bad Request", 404: "Not Found",
                          405: "Method Not Allowed",
                          413: "Payload Too Large",
                          429: "Too Many Requests", 500: "Internal "
                          "Server Error", 503: "Service Unavailable",
                          504: "Gateway Timeout"}.get(
                              status, "Status")
                writer.write(
                    f"HTTP/1.1 {status} {reason}\r\n"
                    f"Content-Type: {ctype}\r\n"
                    f"Content-Length: {len(body)}\r\n"
                    f"Connection: {'close' if close else 'keep-alive'}"
                    "\r\n\r\n".encode("latin-1"))
                writer.write(body)
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
        self.supervisor.start()
        try:
            self._server = await asyncio.start_server(
                self._serve_connection, self.host, self.port)
        except BaseException:
            self.supervisor.stop()
            self._thread = None
            raise
        if self.port == 0:
            self.port = self._server.sockets[0].getsockname()[1]
        self.access_log.open()

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
        self.supervisor.stop()
        self._thread = None
        self.access_log.close()
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
