"""Bounded retry with exponential backoff and jitter.

`RetryPolicy.call` runs a zero-argument operation, retrying transient
`OSError`s with exponential backoff plus seeded
jitter.  `FileNotFoundError` is treated as permanent (retrying a
missing file cannot help), and exhaustion raises the typed
`RetryExhaustedError` with the last error chained -- callers never see
a bare I/O error escape a retried region.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, Tuple, TypeVar

from .errors import RetryExhaustedError

T = TypeVar("T")


@dataclass
class RetryPolicy:
    """How many times to try and how long to wait between tries.

    ``backoff_ms * multiplier**(attempt-1)``, each delay widened by a
    uniform jitter fraction drawn from a seeded RNG (deterministic
    tests, decorrelated retries in real fleets).  ``sleep`` is
    injectable so tests run at full speed.
    """

    max_attempts: int = 3
    backoff_ms: float = 5.0
    multiplier: float = 2.0
    jitter: float = 0.25
    seed: int = 0
    sleep: Callable[[float], None] = time.sleep
    retry_on: Tuple[type, ...] = (OSError,)
    _rng: random.Random = field(init=False, repr=False, default=None)

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self._rng = random.Random(self.seed)

    def delay_ms(self, attempt: int) -> float:
        """Backoff before retry `attempt` (1-based), jitter included."""
        base = self.backoff_ms * (self.multiplier ** (attempt - 1))
        return base * (1.0 + self.jitter * self._rng.random())

    def retryable(self, exc: BaseException) -> bool:
        """True when `exc` is transient under this policy.

        `FileNotFoundError` and `RetryExhaustedError` are permanent by
        nature regardless of `retry_on` -- retrying a missing file or an
        already-exhausted retry region cannot help.  The serve-path
        supervision layer shares this classification so a shard retry
        never spins on a permanent failure.
        """
        return (isinstance(exc, self.retry_on)
                and not isinstance(exc, (FileNotFoundError,
                                         RetryExhaustedError)))

    def call(self, fn: Callable[[], T], op: str = "io") -> T:
        """Run `fn`, retrying transient failures per this policy."""
        last_error = None
        for attempt in range(1, self.max_attempts + 1):
            try:
                result = fn()
            except self.retry_on as exc:
                if not self.retryable(exc):
                    raise  # permanent by nature; retrying cannot help
                last_error = exc
                if attempt == self.max_attempts:
                    break
                self.sleep(self.delay_ms(attempt) / 1000.0)
                continue
            return result
        raise RetryExhaustedError(
            f"{op} failed after {self.max_attempts} attempts: {last_error}",
            attempts=self.max_attempts, op=op) from last_error


#: The policy every `repro.diskdb` read runs under.
DEFAULT_POLICY = RetryPolicy()
