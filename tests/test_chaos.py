"""The chaos harness and the self-healing serve path end to end.

Unit half: `ChaosInjector` schedules are seeded and per-shard
deterministic, spec parsing round-trips, and the byte-fault corruption
is structurally detectable.  Integration half: a real daemon with
``workers=1`` pools under *scripted* faults -- worker kills heal via
pool rebuild + in-deadline retry, corrupt replies degrade to bounded
partials, repeated errors trip the breaker and the probe path closes
it again, and hedged requests rescue latency stragglers.  Scripts
(rather than rates) make every integration scenario deterministic.
"""

import time

import pytest

from repro.obs import MetricsRegistry
from repro.serve import ChaosInjector, ShardedDatabase
from repro.serve.chaos import (BYTE_FAULT, CHAOS_KINDS, SHARD_ERROR,
                               SHARD_LATENCY, WORKER_KILL, corrupt_wire,
                               run_chaos_drive, sample_queries)
from repro.serve.supervisor import BreakerConfig
from tests.test_serve_daemon import DaemonHarness, oracle_ids, payload_ids


@pytest.fixture(scope="module")
def sharded(dblp_db):
    return ShardedDatabase.from_database(dblp_db, 2)


class TestChaosInjector:
    def test_schedules_are_seeded_and_per_shard_deterministic(self):
        def draws(seed):
            chaos = ChaosInjector(kill_rate=0.2, error_rate=0.2,
                                  latency_rate=0.2, seed=seed)
            return {sid: [chaos.next_fault(sid) for _ in range(50)]
                    for sid in (0, 1)}

        assert draws(3) == draws(3)
        assert draws(3) != draws(4)
        one = draws(3)
        assert one[0] != one[1], "shard streams must be decorrelated"

    def test_zero_rates_never_fault(self):
        chaos = ChaosInjector()
        assert all(chaos.next_fault(0) is None for _ in range(100))
        assert sum(chaos.injected.values()) == 0

    def test_roll_order_is_the_kind_order(self):
        # every rate at 1.0: the first kind in CHAOS_KINDS always wins
        chaos = ChaosInjector(kill_rate=1.0, error_rate=1.0,
                              latency_rate=1.0, byte_fault_rate=1.0)
        assert chaos.next_fault(0) == CHAOS_KINDS[0] == WORKER_KILL

    def test_rates_validated(self):
        with pytest.raises(ValueError):
            ChaosInjector(kill_rate=1.5)
        with pytest.raises(ValueError):
            ChaosInjector(latency_ms=-1)
        with pytest.raises(ValueError):
            ChaosInjector(script=["not-a-kind"])

    def test_from_spec_round_trip(self):
        chaos = ChaosInjector.from_spec(
            "kill=0.05, error=0.1,latency=0.2,latency-ms=50,"
            "byte=0.01,seed=3")
        assert chaos.describe() == {
            "kill": 0.05, "error": 0.1, "latency": 0.2, "byte": 0.01,
            "latency_ms": 50.0, "seed": 3}
        with pytest.raises(ValueError):
            ChaosInjector.from_spec("kill")
        with pytest.raises(ValueError):
            ChaosInjector.from_spec("nope=1")

    def test_script_is_consumed_per_shard(self):
        chaos = ChaosInjector(script=[WORKER_KILL, None, SHARD_ERROR])
        for sid in (0, 1):
            assert chaos.next_fault(sid) == WORKER_KILL
            assert chaos.next_fault(sid) is None
            assert chaos.next_fault(sid) == SHARD_ERROR
            assert chaos.next_fault(sid) is None  # exhausted: quiet
        assert chaos.injected[WORKER_KILL] == 2

    def test_injected_counts_feed_metrics(self):
        metrics = MetricsRegistry()
        chaos = ChaosInjector(error_rate=1.0, metrics=metrics)
        chaos.next_fault(0)
        assert metrics.counter("repro_chaos_injected_total",
                               {"kind": SHARD_ERROR}).value == 1

    def test_reset(self):
        chaos = ChaosInjector(kill_rate=0.5, seed=9)
        first = [chaos.next_fault(0) for _ in range(10)]
        chaos.reset()
        assert [chaos.next_fault(0) for _ in range(10)] == first
        assert chaos.injected[WORKER_KILL] == first.count(WORKER_KILL)

    def test_corrupt_wire_is_structurally_detectable(self, sharded):
        """Whatever the byte-fault does to a reply, the validated
        constructor refuses it as the typed retryable error."""
        from repro.algorithms.base import ResultSet
        from repro.reliability.errors import ShardPayloadError

        table = sharded.nodes
        results = sharded.shards[0].search("alpha beta", use_cache=False)
        wire = results.below_root().to_wire()
        assert len(wire[0]) > 1
        assert ResultSet.from_wire(table, wire, 2) == results.below_root()
        for reply in (wire, ResultSet.empty(table, 2).to_wire()):
            with pytest.raises(ShardPayloadError):
                ResultSet.from_wire(table, corrupt_wire(reply), 2, shard=0)


class TestSampleQueries:
    def test_deterministic_and_fanout_exercising(self, sharded):
        queries = sample_queries(sharded, count=6, seed=1)
        assert queries == sample_queries(sharded, count=6, seed=1)
        assert len(queries) == 6
        vocabs = [set(s.columnar_index.vocabulary)
                  for s in sharded.shards]
        for query in queries:
            for term in query.split():
                assert all(term in vocab for vocab in vocabs)


def request_tag(harness, body, key):
    """A tag of the request's stitched trace (``retries``, ``hedges``),
    0 when the request never set it."""
    trace = harness.daemon.traces.get(body["trace_id"])
    return trace["root"]["tags"].get(key, 0)


class TestSelfHealingEndToEnd:
    """Scripted faults against a real daemon with 1-worker pools."""

    def test_worker_kill_heals_via_rebuild_and_retry(self, sharded,
                                                     dblp_db):
        chaos = ChaosInjector(script=[WORKER_KILL])
        with DaemonHarness(sharded, workers=1, chaos=chaos,
                           retry_attempts=2,
                           result_cache_size=0) as h:
            status, body = h.get_json("/topk?q=alpha+beta&k=5")
            assert status == 200
            assert body["degraded"] is False, \
                "retry against the rebuilt pool should fully recover"
            want = dblp_db.search_topk("alpha beta", 5)
            assert payload_ids(body) == oracle_ids(want.results)
            sup = h.daemon.supervisor
            assert sum(sup.rebuilds) == 2   # both shards' workers died
            assert request_tag(h, body, "retries") >= 1
            status, health = h.get_json("/healthz")
            assert status == 200 and health["status"] == "ok"

    def test_byte_fault_degrades_to_bounded_partial(self, sharded,
                                                    dblp_db):
        chaos = ChaosInjector(script=[BYTE_FAULT])
        with DaemonHarness(sharded, workers=1, chaos=chaos,
                           retry_attempts=1,
                           result_cache_size=0) as h:
            status, body = h.get_json("/topk?q=alpha+beta&k=5")
            assert status == 200
            assert body["degraded"] is True
            assert body["partial"] is True
            assert isinstance(body["bound"], float)
            full = oracle_ids(dblp_db.search_topk("alpha beta", 5).results)
            assert set(payload_ids(body)) <= set(full)
            for result in body["results"]:
                assert result["score"] > body["bound"]
            assert h.daemon.metrics.counter(
                "repro_serve_requests_total",
                {"outcome": "degraded"}).value == 1
            # script exhausted: the next request is exact again
            status, body = h.get_json("/topk?q=alpha+beta&k=5")
            assert status == 200 and body["degraded"] is False
            assert payload_ids(body) == full

    def test_degraded_responses_are_never_cached(self, sharded):
        chaos = ChaosInjector(script=[BYTE_FAULT])
        with DaemonHarness(sharded, workers=1, chaos=chaos,
                           retry_attempts=1) as h:
            _, degraded = h.get_json("/topk?q=alpha+beta&k=5")
            assert degraded["degraded"] is True
            _, clean = h.get_json("/topk?q=alpha+beta&k=5")
            assert clean["cached"] is False and clean["degraded"] is False

    def test_breaker_trips_then_probe_recloses(self, sharded, dblp_db):
        chaos = ChaosInjector(script=[SHARD_ERROR, SHARD_ERROR])
        breaker = BreakerConfig(consecutive_failures=2, open_ms=80.0,
                                jitter=0.0)
        with DaemonHarness(sharded, workers=1, chaos=chaos,
                           retry_attempts=1, breaker=breaker,
                           result_cache_size=0) as h:
            # two scripted failures per shard: breakers trip open
            for _ in range(2):
                status, body = h.get_json("/topk?q=alpha+beta&k=5")
                assert status == 200 and body["degraded"] is True
            sup = h.daemon.supervisor
            assert all(b.state == "open" for b in sup.breakers)
            status, health = h.get_json("/healthz")
            assert status == 200 and health["status"] == "degraded"
            # while open, calls are refused outright (skipped, degraded)
            status, body = h.get_json("/topk?q=alpha+beta&k=5")
            assert status == 200 and body["degraded"] is True
            shards = h.daemon.access_log.records()[-1]["shards"]
            assert sum(bool(s.get("skipped")) for s in shards) >= 1
            # past the quarantine the probe succeeds (script exhausted)
            # and closes the breakers again
            time.sleep(0.15)
            status, body = h.get_json("/topk?q=alpha+beta&k=5")
            assert status == 200 and body["degraded"] is False
            want = dblp_db.search_topk("alpha beta", 5)
            assert payload_ids(body) == oracle_ids(want.results)
            assert all(b.state == "closed" for b in sup.breakers)
            status, health = h.get_json("/healthz")
            assert status == 200 and health["status"] == "ok"

    def test_deadline_too_tight_for_backoff_skips_the_retry(self,
                                                            sharded):
        chaos = ChaosInjector(script=[SHARD_ERROR, SHARD_ERROR])
        with DaemonHarness(sharded, workers=1, chaos=chaos,
                           retry_attempts=3, retry_backoff_ms=60_000,
                           result_cache_size=0) as h:
            status, body = h.get_json(
                "/topk?q=alpha+beta&k=5&timeout_ms=500&partial=1")
            assert status == 200 and body["degraded"] is True
            assert request_tag(h, body, "retries") == 0, \
                "backoff longer than the budget must not be slept"

    def test_hedged_request_rescues_a_latency_straggler(self, sharded,
                                                        dblp_db):
        chaos = ChaosInjector(script=[SHARD_LATENCY], latency_ms=800.0)
        with DaemonHarness(sharded, workers=2, chaos=chaos,
                           hedge_ms=40.0, result_cache_size=0) as h:
            start = time.perf_counter()
            status, body = h.get_json("/topk?q=alpha+beta&k=5")
            elapsed_ms = (time.perf_counter() - start) * 1000.0
            assert status == 200 and body["degraded"] is False
            want = dblp_db.search_topk("alpha beta", 5)
            assert payload_ids(body) == oracle_ids(want.results)
            assert request_tag(h, body, "hedges") >= 1
            assert elapsed_ms < 750.0, \
                "the hedge should beat the 800ms straggler"

    def test_chaos_requires_worker_pools(self, sharded):
        from repro.serve import ServeDaemon

        with pytest.raises(ValueError):
            ServeDaemon(sharded, workers=0,
                        chaos=ChaosInjector(kill_rate=0.1),
                        metrics=MetricsRegistry())


class TestChaosDriveReport:
    def test_quiet_drive_reports_ok(self, sharded):
        chaos = ChaosInjector()     # zero rates: no faults at all
        queries = sample_queries(sharded, count=4, seed=0)
        report = run_chaos_drive(sharded, chaos, queries, workers=1,
                                 requests=16, clients=2,
                                 timeout_ms=5000.0)
        assert report["ok"], report["violations"]
        assert report["healed"] is True
        assert report["availability"] == 1.0
        assert report["degraded_responses"] == 0
        assert report["statuses"].get("200") == 16
