"""Shard supervision: circuit breakers and self-healing worker pools.

Two pieces, both owned by the daemon and consulted on every shard call:

* `CircuitBreaker` -- the classic closed / open / half-open state
  machine, one per shard.  It trips on either **consecutive failures**
  or a **rolling error rate** (with a minimum sample volume so one
  early failure cannot open a cold breaker), backs off with
  seeded-jitter exponential delays (the same shape as
  `reliability.retry.RetryPolicy.delay_ms`), and lets a bounded number
  of half-open probes through before closing again.  A tripped shard
  is *skipped* -- the request degrades instead of burning its deadline
  against a sick pool.

* `ShardSupervisor` -- owns the per-shard executors: a fork-context
  `ProcessPoolExecutor` each, or at ``--workers 0`` the one thread
  every shard shares.  When a worker dies (`BrokenProcessPool`, which only a
  process pool raises), the supervisor quarantines the shard, shuts the
  poisoned pool down without waiting, and installs a fresh one.
  Creating the executor object is cheap -- fork workers spawn lazily on
  first submit, inheriting the shard databases by copy-on-write -- so
  the expensive part of the rebuild genuinely happens off the request
  path, and an in-deadline retry typically lands on the rebuilt pool.

Both are single-threaded by design: all mutation happens on the
daemon's event loop.  Clocks and RNG seeds are injectable so every
transition is deterministic under test.
"""

from __future__ import annotations

import random
import time
from collections import deque
from concurrent.futures import Executor
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

__all__ = [
    "BreakerConfig", "BreakerOpenError", "CircuitBreaker",
    "ShardSupervisor", "CLOSED", "OPEN", "HALF_OPEN",
]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class BreakerOpenError(OSError):
    """Raised/recorded when a shard call is refused by an open breaker."""

    def __init__(self, message: str, shard: Optional[int] = None,
                 reopen_in_ms: Optional[float] = None):
        super().__init__(message)
        self.shard = shard
        self.reopen_in_ms = reopen_in_ms


@dataclass
class BreakerConfig:
    """Trip and recovery tuning for one shard's circuit breaker.

    ``consecutive_failures`` trips fast on a hard-down shard;
    ``error_rate_threshold`` over the last ``window`` outcomes (once at
    least ``min_volume`` are recorded) trips on flapping.  While open,
    probes are refused for ``open_ms * multiplier**(trips-1)`` capped at
    ``max_open_ms`` and widened by a seeded ``jitter`` fraction, so a
    fleet of breakers does not probe in lockstep.
    """

    consecutive_failures: int = 3
    error_rate_threshold: float = 0.5
    window: int = 20
    min_volume: int = 10
    open_ms: float = 250.0
    multiplier: float = 2.0
    max_open_ms: float = 30_000.0
    jitter: float = 0.2
    half_open_probes: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.consecutive_failures < 1:
            raise ValueError("consecutive_failures must be >= 1")
        if not 0.0 < self.error_rate_threshold <= 1.0:
            raise ValueError("error_rate_threshold must be in (0, 1]")
        if self.window < 1 or self.min_volume < 1:
            raise ValueError("window and min_volume must be >= 1")
        if self.open_ms <= 0 or self.max_open_ms < self.open_ms:
            raise ValueError("need 0 < open_ms <= max_open_ms")
        if self.half_open_probes < 1:
            raise ValueError("half_open_probes must be >= 1")


class CircuitBreaker:
    """Closed / open / half-open breaker for a single shard."""

    def __init__(self, config: Optional[BreakerConfig] = None, *,
                 clock: Callable[[], float] = time.monotonic):
        self.config = config or BreakerConfig()
        self._clock = clock
        self._rng = random.Random(self.config.seed)
        self._state = CLOSED
        self._consecutive = 0
        self._outcomes: deque = deque(maxlen=self.config.window)
        self._reopen_at = 0.0
        self._trip_level = 0      # consecutive trips without a close
        self._probes_inflight = 0
        self.trips_total = 0
        self.transitions: Dict[str, int] = {}

    # -- introspection -------------------------------------------------

    @property
    def state(self) -> str:
        return self._state

    def reopen_in_ms(self) -> Optional[float]:
        """Milliseconds until the next half-open probe; None unless open."""
        if self._state != OPEN:
            return None
        return max(0.0, (self._reopen_at - self._clock()) * 1000.0)

    # -- state machine -------------------------------------------------

    def _transition(self, to: str) -> None:
        if to == self._state:
            return
        self._state = to
        self.transitions[to] = self.transitions.get(to, 0) + 1

    def _open(self) -> None:
        self._trip_level += 1
        self.trips_total += 1
        cfg = self.config
        base = min(cfg.open_ms * (cfg.multiplier ** (self._trip_level - 1)),
                   cfg.max_open_ms)
        delay_ms = base * (1.0 + cfg.jitter * self._rng.random())
        self._reopen_at = self._clock() + delay_ms / 1000.0
        self._probes_inflight = 0
        self._transition(OPEN)

    def allow(self) -> bool:
        """May a shard call proceed right now?

        In half-open state a ``True`` answer *reserves* a probe slot;
        the caller must follow up with `record_success` or
        `record_failure` to release it.
        """
        if self._state == CLOSED:
            return True
        if self._state == OPEN:
            if self._clock() < self._reopen_at:
                return False
            self._transition(HALF_OPEN)
        # half-open: bounded concurrent probes
        if self._probes_inflight >= self.config.half_open_probes:
            return False
        self._probes_inflight += 1
        return True

    def record_success(self) -> None:
        if self._state == HALF_OPEN:
            self._probes_inflight = max(0, self._probes_inflight - 1)
            self._trip_level = 0
            self._consecutive = 0
            self._outcomes.clear()
            self._transition(CLOSED)
            return
        self._consecutive = 0
        self._outcomes.append(True)

    def record_failure(self) -> None:
        if self._state == HALF_OPEN:
            self._probes_inflight = max(0, self._probes_inflight - 1)
            self._open()
            return
        if self._state == OPEN:
            return  # late failure from a call admitted before the trip
        self._consecutive += 1
        self._outcomes.append(False)
        cfg = self.config
        if self._consecutive >= cfg.consecutive_failures:
            self._open()
            return
        if len(self._outcomes) >= cfg.min_volume:
            failures = sum(1 for ok in self._outcomes if not ok)
            if failures / len(self._outcomes) >= cfg.error_rate_threshold:
                self._open()


# Pool lifecycle states (distinct from breaker states: a pool can be
# "ready" behind an open breaker, and vice versa).
POOL_READY = "ready"
POOL_REBUILDING = "rebuilding"
POOL_DOWN = "down"          # rebuild itself failed; needs operator


class ShardSupervisor:
    """Owns per-shard pools + breakers and heals broken pools.

    ``pool_factory`` is called with no arguments to build one shard's
    executor; the daemon's returns its one shared thread or builds a
    fork-context process pool, whose workers serve its shards.
    """

    def __init__(self, n_shards: int, pool_factory: Callable[[], Executor],
                 *, breaker_config: Optional[BreakerConfig] = None,
                 metrics=None,
                 clock: Callable[[], float] = time.monotonic):
        self.n_shards = n_shards
        self._pool_factory = pool_factory
        self._metrics = metrics
        cfg = breaker_config or BreakerConfig()
        # Decorrelate per-shard jitter streams while keeping each one
        # deterministic for a given (seed, shard) pair.
        self.breakers: List[CircuitBreaker] = [
            CircuitBreaker(
                BreakerConfig(**{**cfg.__dict__, "seed": cfg.seed + sid}),
                clock=clock)
            for sid in range(n_shards)
        ]
        self._pools: List[Optional[Executor]] = [None] * n_shards
        self._pool_state = [POOL_DOWN] * n_shards
        self.rebuilds: List[int] = [0] * n_shards

    # -- pool lifecycle ------------------------------------------------

    def start(self) -> None:
        for sid in range(self.n_shards):
            self._pools[sid] = self._pool_factory()
            self._pool_state[sid] = POOL_READY

    def stop(self) -> None:
        for sid, pool in enumerate(self._pools):
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)
            self._pools[sid] = None
            self._pool_state[sid] = POOL_DOWN

    def pool(self, sid: int) -> Optional[Executor]:
        """The shard's executor, or None while rebuilding / down."""
        if self._pool_state[sid] != POOL_READY:
            return None
        return self._pools[sid]

    def pool_state(self, sid: int) -> str:
        return self._pool_state[sid]

    def breaker(self, sid: int) -> CircuitBreaker:
        return self.breakers[sid]

    def note_pool_broken(self, sid: int) -> None:
        """Quarantine a poisoned pool and install a fresh one.

        The broken executor is shut down without waiting (its workers
        are already dead or doomed); the replacement is just an object
        allocation -- its fork workers spawn lazily on the next submit,
        so the rebuild cost is paid off the critical path.
        """
        broken, self._pools[sid] = self._pools[sid], None
        self._pool_state[sid] = POOL_REBUILDING
        if broken is not None:
            try:
                broken.shutdown(wait=False, cancel_futures=True)
            except Exception:
                pass
        try:
            self._pools[sid] = self._pool_factory()
        except Exception:
            self._pool_state[sid] = POOL_DOWN
            raise
        self._pool_state[sid] = POOL_READY
        self.rebuilds[sid] += 1
        if self._metrics is not None:
            self._metrics.counter("repro_pool_rebuilds_total",
                                  {"shard": str(sid)}).inc()

    # -- health --------------------------------------------------------

    def shard_state(self, sid: int) -> str:
        """``healthy`` | ``degraded`` | ``down`` for one shard.

        Down means no way to serve the shard at all (pool dead and not
        coming back).  Degraded means temporarily skipped or probing:
        open/half-open breaker, or a pool mid-rebuild.
        """
        pool = self._pool_state[sid]
        if pool == POOL_DOWN:
            return "down"
        breaker = self.breakers[sid].state
        if pool == POOL_REBUILDING or breaker != CLOSED:
            return "degraded"
        return "healthy"

    def health(self) -> Dict[str, Dict[str, object]]:
        """Per-shard health report, JSON-shaped for `/healthz`."""
        report: Dict[str, Dict[str, object]] = {}
        for sid in range(self.n_shards):
            breaker = self.breakers[sid]
            entry: Dict[str, object] = {
                "state": self.shard_state(sid),
                "breaker": breaker.state,
                "pool": self._pool_state[sid],
                "rebuilds": self.rebuilds[sid],
            }
            reopen = breaker.reopen_in_ms()
            if reopen is not None:
                entry["reopen_in_ms"] = round(reopen, 3)
            report[str(sid)] = entry
        return report

    def overall(self) -> str:
        """``ok`` | ``degraded`` | ``down`` for the whole daemon."""
        states = [self.shard_state(sid) for sid in range(self.n_shards)]
        if states and all(s == "down" for s in states):
            return "down"
        if any(s != "healthy" for s in states):
            return "degraded"
        return "ok"
