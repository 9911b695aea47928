"""Circuit breakers and shard supervision (`repro.serve.supervisor`).

Everything here runs on injected clocks and seeds: breaker trips,
backoff growth, half-open probe accounting and pool-rebuild
bookkeeping are asserted deterministically, without a daemon or any
real worker processes.
"""

import pytest

from repro.obs import MetricsRegistry
from repro.serve.supervisor import (CLOSED, HALF_OPEN, OPEN,
                                    BreakerConfig, CircuitBreaker,
                                    ShardSupervisor)


class Clock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def make_breaker(clock, **overrides):
    cfg = dict(consecutive_failures=3, open_ms=100.0, multiplier=2.0,
               max_open_ms=1000.0, jitter=0.0, seed=7)
    cfg.update(overrides)
    return CircuitBreaker(BreakerConfig(**cfg), clock=clock)


class TestBreakerConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            BreakerConfig(consecutive_failures=0)
        with pytest.raises(ValueError):
            BreakerConfig(error_rate_threshold=0.0)
        with pytest.raises(ValueError):
            BreakerConfig(window=0)
        with pytest.raises(ValueError):
            BreakerConfig(open_ms=0)
        with pytest.raises(ValueError):
            BreakerConfig(open_ms=100, max_open_ms=50)
        with pytest.raises(ValueError):
            BreakerConfig(half_open_probes=0)


class TestBreakerStateMachine:
    def test_trips_on_consecutive_failures(self):
        clock = Clock()
        breaker = make_breaker(clock)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == CLOSED and breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()
        assert breaker.trips_total == 1
        assert breaker.reopen_in_ms() == pytest.approx(100.0)

    def test_success_resets_the_consecutive_count(self):
        # threshold 1.0 keeps the rolling-rate trip out of the way: only
        # the consecutive counter could fire, and successes reset it.
        breaker = make_breaker(Clock(), error_rate_threshold=1.0)
        for _ in range(10):
            breaker.record_failure()
            breaker.record_failure()
            breaker.record_success()
        assert breaker.state == CLOSED

    def test_trips_on_error_rate_after_min_volume(self):
        breaker = make_breaker(Clock(), consecutive_failures=100,
                               error_rate_threshold=0.5, window=10,
                               min_volume=10)
        # alternate so the consecutive counter never fires
        for _ in range(4):
            breaker.record_failure()
            breaker.record_success()
        assert breaker.state == CLOSED  # 8 samples < min_volume
        breaker.record_success()
        breaker.record_failure()        # 10th sample, 50% failures
        assert breaker.state == OPEN

    def test_half_open_probe_is_reserved_and_released(self):
        clock = Clock()
        breaker = make_breaker(clock, half_open_probes=1)
        for _ in range(3):
            breaker.record_failure()
        assert not breaker.allow()
        clock.advance(0.2)              # past the 100ms quarantine
        assert breaker.allow()          # reserves the probe slot
        assert breaker.state == HALF_OPEN
        assert not breaker.allow()      # slot taken until an outcome
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.allow() and breaker.allow()  # closed: unlimited

    def test_half_open_failure_reopens_with_longer_backoff(self):
        clock = Clock()
        breaker = make_breaker(clock)   # jitter 0: exact delays
        for _ in range(3):
            breaker.record_failure()
        assert breaker.reopen_in_ms() == pytest.approx(100.0)
        clock.advance(0.2)
        assert breaker.allow()
        breaker.record_failure()        # failed probe: trip level 2
        assert breaker.state == OPEN
        assert breaker.reopen_in_ms() == pytest.approx(200.0)
        clock.advance(0.3)
        assert breaker.allow()
        breaker.record_failure()        # trip level 3
        assert breaker.reopen_in_ms() == pytest.approx(400.0)
        assert breaker.trips_total == 3

    def test_backoff_caps_at_max_open_ms(self):
        clock = Clock()
        breaker = make_breaker(clock, max_open_ms=250.0)
        for _ in range(3):
            breaker.record_failure()
        for _ in range(5):              # re-trip far past the cap
            clock.advance(10.0)
            assert breaker.allow()
            breaker.record_failure()
        assert breaker.reopen_in_ms() <= 250.0

    def test_success_after_probe_resets_trip_level(self):
        clock = Clock()
        breaker = make_breaker(clock)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(0.2)
        assert breaker.allow()
        breaker.record_failure()        # level 2: 200ms
        clock.advance(0.3)
        assert breaker.allow()
        breaker.record_success()        # closes, resets the level
        for _ in range(3):
            breaker.record_failure()
        assert breaker.reopen_in_ms() == pytest.approx(100.0)

    def test_jitter_is_seeded_and_bounded(self):
        def delays(seed):
            clock = Clock()
            breaker = make_breaker(clock, jitter=0.2, seed=seed)
            out = []
            for _ in range(3):
                for _ in range(3):
                    breaker.record_failure()
                out.append(breaker.reopen_in_ms())
                clock.advance(breaker.reopen_in_ms() / 1000.0 + 0.01)
                assert breaker.allow()
                breaker.record_success()
            return out

        assert delays(3) == delays(3)   # deterministic per seed
        assert delays(3) != delays(4)   # decorrelated across seeds
        for delay in delays(3):
            assert 100.0 <= delay <= 100.0 * 1.2 + 1e-6

    def test_late_failure_while_open_is_ignored(self):
        clock = Clock()
        breaker = make_breaker(clock)
        for _ in range(3):
            breaker.record_failure()
        breaker.record_failure()        # a call admitted pre-trip lands
        assert breaker.trips_total == 1
        assert breaker.reopen_in_ms() == pytest.approx(100.0)

    def test_transition_counts(self):
        clock = Clock()
        breaker = make_breaker(clock)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(0.2)
        breaker.allow()
        breaker.record_success()
        assert breaker.transitions == {OPEN: 1, HALF_OPEN: 1, CLOSED: 1}


class FakePool:
    def __init__(self):
        self.shut = False

    def shutdown(self, wait=True, cancel_futures=False):
        self.shut = True


class TestShardSupervisor:
    def make(self, n_shards=3, factory=None, metrics=None):
        built = []

        def default_factory():
            pool = FakePool()
            built.append(pool)
            return pool

        sup = ShardSupervisor(n_shards, factory or default_factory,
                              metrics=metrics)
        sup._built = built
        return sup

    def test_start_builds_one_pool_per_shard(self):
        sup = self.make()
        sup.start()
        assert len(sup._built) == 3
        assert all(sup.pool_state(sid) == "ready" for sid in range(3))
        assert sup.overall() == "ok"

    def test_broken_pool_is_quarantined_and_replaced(self):
        metrics = MetricsRegistry()
        sup = self.make(metrics=metrics)
        sup.start()
        broken = sup.pool(1)
        sup.note_pool_broken(1)
        assert broken.shut, "poisoned pool must be shut down"
        assert sup.pool(1) is not broken
        assert sup.pool_state(1) == "ready"
        assert sup.rebuilds == [0, 1, 0]
        assert metrics.counter("repro_pool_rebuilds_total",
                               {"shard": "1"}).value == 1

    def test_failed_rebuild_marks_the_shard_down(self):
        calls = []

        def flaky_factory():
            calls.append(True)
            if len(calls) > 3:          # start() works, rebuilds fail
                raise OSError("no more processes")
            return FakePool()

        sup = self.make(factory=flaky_factory)
        sup.start()
        with pytest.raises(OSError):
            sup.note_pool_broken(2)
        assert sup.pool_state(2) == "down"
        assert sup.shard_state(2) == "down"
        assert sup.overall() == "degraded"  # others still healthy

    def test_overall_down_only_when_every_shard_is_down(self):
        sup = self.make(n_shards=2)
        sup.start()
        sup._pool_state[0] = "down"
        assert sup.overall() == "degraded"
        sup._pool_state[1] = "down"
        assert sup.overall() == "down"

    def test_open_breaker_degrades_the_shard(self):
        sup = self.make()
        sup.start()
        for _ in range(3):
            sup.breaker(0).record_failure()
        assert sup.shard_state(0) == "degraded"
        assert sup.overall() == "degraded"
        report = sup.health()
        assert report["0"]["breaker"] == OPEN
        assert "reopen_in_ms" in report["0"]
        assert report["1"] == {"state": "healthy", "breaker": CLOSED,
                               "pool": "ready", "rebuilds": 0}

    def test_breaker_seeds_are_decorrelated_per_shard(self):
        sup = self.make()
        seeds = {b.config.seed for b in sup.breakers}
        assert len(seeds) == 3

    def test_breaker_transition_metrics(self):
        """Transitions are reported per shard by the breaker's counters
        and `health()` (what ``/stats`` serves)."""
        sup = self.make()
        sup.start()
        for _ in range(3):
            sup.breaker(2).record_failure()
        assert sup.breaker(2).transitions == {OPEN: 1}
        assert sup.breaker(2).trips_total == 1
        assert sup.health()["2"]["breaker"] == OPEN
        assert sup.breaker(1).transitions == {}

    def test_stop_shuts_every_pool(self):
        sup = self.make()
        sup.start()
        pools = [sup.pool(sid) for sid in range(3)]
        sup.stop()
        assert all(pool.shut for pool in pools)
        assert all(sup.pool(sid) is None for sid in range(3))
