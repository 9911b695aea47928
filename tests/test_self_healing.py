"""The self-healing serve path end to end, through real faults.

A real daemon over a 2-shard database.  Every fault comes from the
test side; nothing in ``src/`` knows it is being tested:

* a **worker kill** is a SIGKILL of a pool worker's pid -- the pool is
  rebuilt and the request retried on it, to an exact answer;
* a **shard error**, a **corrupt reply** and a **slow shard** come from
  `_planned_shard`, which stands in for `repro.serve.daemon._serve_shard`
  as a `functools.partial` over a per-shard plan.  The daemon pickles
  the partial with every call, so a forked worker runs the plan the
  parent installed for that request; re-installing it changes the plan
  for the next one.

A shard call takes the same supervised path whatever ``workers`` is,
so every case that needs no process death runs with ``workers=1``
(fork pools, the case's ``workers`` default) and again with
``workers=0`` (one in-process thread, `TestThreadExecutors`).

Covered: pool rebuild + in-deadline retry, corrupt replies degraded to
a bounded subset and never cached, breakers tripping and their probe
re-closing them, a backoff longer than the remaining budget skipped,
and a budget spent inside the worker giving an honest partial that is
not degraded.
"""

import functools
import os
import signal
import time

import pytest

import repro.serve.daemon as daemon_module
from repro.serve import ShardedDatabase
from repro.serve.supervisor import BreakerConfig
from tests.faults import InjectedFault
from tests.test_serve_daemon import DaemonHarness, oracle_ids, payload_ids

#: The real shard entry, bound before any test replaces the module's.
_REAL_SERVE_SHARD = daemon_module._serve_shard

QUERY = "/topk?q=alpha+beta&k=5"


def _planned_shard(plan, payload):
    """`_serve_shard` with ``plan[sid]`` applied: ``("error",)`` answers
    with a transient error, ``("corrupt",)`` ships a reply whose score
    column lost its tail, ``("slow", ms)`` spends `ms` of the budget
    before evaluating (`Deadline.from_wire` charges it, as it charges
    any wait after dispatch); a shard with no entry is served as
    usual."""
    sid, terms, semantics, k, wire, ctx_wire = payload
    fault = plan.get(sid, ("none",))
    if fault[0] == "error":
        return (sid, None, False, None, 0.0,
                InjectedFault("injected shard error", kind="shard-error"),
                {"pid": os.getpid(), "trace": None})
    if fault[0] == "slow":
        # A step that polls no deadline; the wire charges it.
        time.sleep(fault[1] / 1000.0)
    outcome = _REAL_SERVE_SHARD(
        (sid, terms, semantics, k, wire, ctx_wire))
    if fault[0] == "corrupt" and outcome[1] is not None:
        rows, scores, witness = outcome[1]
        reply = (("\x00garbage",) if not len(rows)
                 else (rows, scores[:len(scores) // 2], witness))
        outcome = (outcome[0], reply) + tuple(outcome[2:])
    return outcome


@pytest.fixture
def plan(monkeypatch):
    """``plan({sid: fault})`` installs the shard plan for the requests
    that follow; ``plan({})`` serves every shard as usual."""

    def install(faults):
        monkeypatch.setattr(daemon_module, "_serve_shard",
                            functools.partial(_planned_shard, dict(faults)))

    install({})
    return install


@pytest.fixture(scope="module")
def sharded(dblp_db):
    return ShardedDatabase.from_database(dblp_db, 2)


def request_tag(harness, body, key):
    """A tag of the request's stitched trace root (0 when absent)."""
    trace = harness.daemon.access_log.get(body["trace_id"])
    return trace["root"]["tags"].get(key, 0)


def test_worker_kill_heals_via_rebuild_and_retry(sharded, dblp_db):
    with DaemonHarness(sharded, workers=1, retry_attempts=2,
                       result_cache_size=0) as h:
        status, body = h.get_json(QUERY)
        assert status == 200 and body["degraded"] is False
        sup = h.daemon.supervisor
        (pid,) = sup.pool(0)._processes
        os.kill(pid, signal.SIGKILL)
        status, body = h.get_json(QUERY)
        assert status == 200
        assert body["degraded"] is False, \
            "retry against the rebuilt pool should fully recover"
        want = dblp_db.search_topk("alpha beta", 5)
        assert payload_ids(body) == oracle_ids(want.results)
        assert sup.rebuilds == [1, 0]
        assert request_tag(h, body, "retries") >= 1
        assert h.daemon.metrics.counter("repro_pool_rebuilds_total",
                                        {"shard": "0"}).value == 1
        status, health = h.get_json("/healthz")
        assert status == 200 and health["status"] == "ok"


def test_corrupt_reply_degrades_to_bounded_subset(sharded, dblp_db, plan,
                                                  workers=1):
    plan({0: ("corrupt",)})
    with DaemonHarness(sharded, workers=workers, retry_attempts=1,
                       result_cache_size=0) as h:
        status, body = h.get_json(QUERY)
        assert status == 200
        assert body["degraded"] is True
        assert body["partial"] is True
        assert isinstance(body["bound"], float)
        full = oracle_ids(dblp_db.search_topk("alpha beta", 5).results)
        assert set(payload_ids(body)) <= set(full)
        for result in body["results"]:
            assert result["score"] > body["bound"]
        record = h.daemon.access_log.records()[-1]
        assert [s["shard"] for s in record["shards"]
                if s.get("degraded")] == [0]
        assert h.daemon.metrics.counter(
            "repro_serve_requests_total", {"outcome": "degraded"}).value == 1
        # the fault is gone: the next request is exact again
        plan({})
        status, body = h.get_json(QUERY)
        assert status == 200 and body["degraded"] is False
        assert payload_ids(body) == full


def test_degraded_responses_are_never_cached(sharded, plan, workers=1):
    plan({0: ("corrupt",), 1: ("corrupt",)})
    with DaemonHarness(sharded, workers=workers, retry_attempts=1) as h:
        _, degraded = h.get_json(QUERY)
        assert degraded["degraded"] is True
        plan({})
        _, clean = h.get_json(QUERY)
        assert clean["cached"] is False and clean["degraded"] is False


def test_breaker_trips_then_probe_recloses(sharded, dblp_db, plan,
                                           workers=1):
    plan({0: ("error",), 1: ("error",)})
    breaker = BreakerConfig(consecutive_failures=2, open_ms=80.0,
                            jitter=0.0)
    with DaemonHarness(sharded, workers=workers, retry_attempts=1,
                       breaker=breaker, result_cache_size=0) as h:
        # two failures per shard: the breakers trip open
        for _ in range(2):
            status, body = h.get_json(QUERY)
            assert status == 200 and body["degraded"] is True
        sup = h.daemon.supervisor
        assert all(b.state == "open" for b in sup.breakers)
        status, health = h.get_json("/healthz")
        assert status == 200 and health["status"] == "degraded"
        # while open, calls are refused outright (skipped, degraded)
        status, body = h.get_json(QUERY)
        assert status == 200 and body["degraded"] is True
        shards = h.daemon.access_log.records()[-1]["shards"]
        assert sum(bool(s.get("skipped")) for s in shards) >= 1
        # past the quarantine the probe succeeds and closes them again
        plan({})
        time.sleep(0.15)
        status, body = h.get_json(QUERY)
        assert status == 200 and body["degraded"] is False
        want = dblp_db.search_topk("alpha beta", 5)
        assert payload_ids(body) == oracle_ids(want.results)
        assert all(b.state == "closed" for b in sup.breakers)
        status, health = h.get_json("/healthz")
        assert status == 200 and health["status"] == "ok"


def test_deadline_too_tight_for_backoff_skips_the_retry(sharded, plan,
                                                        monkeypatch,
                                                        workers=1):
    plan({0: ("error",), 1: ("error",)})
    monkeypatch.setattr(daemon_module, "RETRY_BACKOFF_MS", 60_000)
    with DaemonHarness(sharded, workers=workers, retry_attempts=3,
                       result_cache_size=0) as h:
        status, body = h.get_json(f"{QUERY}&timeout_ms=500&partial=1")
        assert status == 200 and body["degraded"] is True
        assert request_tag(h, body, "retries") == 0, \
            "backoff longer than the budget must not be slept"


def test_budget_spent_inside_the_worker_is_partial_not_degraded(
        sharded, plan, workers=1):
    # `timeout_ms=0` never reaches a worker (`_call_shard` stops before
    # dispatch); a shard slower than the budget does, and the worker's
    # honest empty prefix must not read as a corrupt payload.  Two
    # shards that each spend 400 ms without polling their 60 ms budget
    # cost one of them, not the sum: at ``workers=0`` they share one
    # thread, and the call still waiting when the budget runs out is
    # withdrawn, never run.
    plan({0: ("slow", 400.0), 1: ("slow", 400.0)})
    with DaemonHarness(sharded, workers=workers, result_cache_size=0) as h:
        status, body = h.get_json(
            "/topk?q=beta+gamma+rare&k=10&partial=1&timeout_ms=60")
        assert status == 200
        assert body["partial"] is True
        assert body["degraded"] is False
        assert request_tag(h, body, "fanout") == 2
        assert body["elapsed_ms"] < 600, \
            "a shard call waiting for its executor outlived the budget"
        shards = h.daemon.access_log.get(body["trace_id"])["shards"]
        ran = sum("pid" in shard for shard in shards)
        assert ran == (1 if workers == 0 else 2)
        assert h.daemon.metrics.counter(
            "repro_serve_requests_total", {"outcome": "degraded"}).value == 0
        assert request_tag(h, body, "retries") == 0


class TestThreadExecutors:
    """The cases above at ``workers=0``: the same faults reach the same
    supervised call, which runs on an in-process thread."""

    def test_corrupt_reply_degrades_to_bounded_subset(self, sharded,
                                                      dblp_db, plan):
        test_corrupt_reply_degrades_to_bounded_subset(sharded, dblp_db, plan,
                                                      workers=0)

    def test_degraded_responses_are_never_cached(self, sharded, plan):
        test_degraded_responses_are_never_cached(sharded, plan, workers=0)

    def test_breaker_trips_then_probe_recloses(self, sharded, dblp_db, plan):
        test_breaker_trips_then_probe_recloses(sharded, dblp_db, plan,
                                               workers=0)

    def test_deadline_too_tight_for_backoff_skips_the_retry(
            self, sharded, plan, monkeypatch):
        test_deadline_too_tight_for_backoff_skips_the_retry(
            sharded, plan, monkeypatch, workers=0)

    def test_budget_spent_inside_the_worker_is_partial_not_degraded(
            self, sharded, plan):
        test_budget_spent_inside_the_worker_is_partial_not_degraded(
            sharded, plan, workers=0)
