"""Query deadlines and cooperative cancellation.

A `Deadline` is a wall-clock budget plus an expiry policy, threaded
through `XMLDatabase.search` / `search_topk` / `search_batch` /
`search_stream` and checked at cheap boundaries by one loop -- the level
loop every join-family engine runs (`JoinBasedSearch._batches`): once
per level, after every rank-join block in ``topk-join``, and, through
the scope it installs, per column decompression in the disk index.  Two
policies:

* ``raise``   -- expiry raises `DeadlineExceeded` (default);
* ``partial`` -- the engine stops cleanly and returns everything proven
  so far, with ``ExecutionStats.partial`` / ``levels_skipped`` set and,
  on the top-K path, the run's current bound reported as the
  guarantee gap (no unreturned result can score above it).

Because partial results are produced by stopping a bottom-up evaluation
early they are always a *subset* of the unbounded run's results, and on
the top-K path a *prefix* of its emission order -- degraded, never
wrong.

The clock is injectable (``clock=...``) so tests expire deadlines
deterministically without sleeping.

`deadline_scope` installs a deadline in a thread-local so layers that
are not parameter-threaded (the disk index's per-column fetch) can
poll it via `check_active` -- a getattr and a None test when no
deadline is active, so the unbudgeted path stays free.  The level loop
is what installs it, around its column fetch only: never across a
``yield``, so a suspended stream leaks no budget into its consumer.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional, Union

from .errors import DeadlineExceeded

RAISE = "raise"
PARTIAL = "partial"
POLICIES = (RAISE, PARTIAL)


class Deadline:
    """A wall-clock query budget with an expiry policy.

    Parameters
    ----------
    timeout_ms:
        Budget in milliseconds, counted from construction.  ``None``
        never expires (handy for code that always passes a deadline).
    on_deadline:
        ``"raise"`` (default) or ``"partial"`` -- what the engines do
        when the budget runs out.
    clock:
        Seconds-returning callable (default `time.perf_counter`);
        injectable for deterministic tests.
    """

    __slots__ = ("budget_ms", "on_deadline", "_clock", "_start")

    def __init__(self, timeout_ms: Optional[float] = None,
                 on_deadline: str = RAISE,
                 clock: Callable[[], float] = time.perf_counter):
        if on_deadline not in POLICIES:
            raise ValueError(f"unknown deadline policy {on_deadline!r}; "
                             f"one of {POLICIES}")
        self.budget_ms = None if timeout_ms is None else float(timeout_ms)
        self.on_deadline = on_deadline
        self._clock = clock
        self._start = clock()

    @classmethod
    def coerce(cls, deadline: Union["Deadline", float, int, None],
               timeout_ms: Optional[float] = None,
               on_deadline: Optional[str] = None) -> Optional["Deadline"]:
        """Normalize the API surface's three spellings to one object.

        ``deadline`` may be a `Deadline` (returned as-is), a number of
        milliseconds, or ``None`` -- in which case ``timeout_ms`` (the
        convenience kwarg) builds one.  ``on_deadline`` applies only
        when a new object is built here.
        """
        if isinstance(deadline, Deadline):
            return deadline
        if deadline is None and timeout_ms is None:
            return None
        budget = float(deadline) if deadline is not None else timeout_ms
        return cls(budget, on_deadline if on_deadline is not None else RAISE)

    @property
    def partial_ok(self) -> bool:
        return self.on_deadline == PARTIAL

    def elapsed_ms(self) -> float:
        return (self._clock() - self._start) * 1000.0

    def remaining_ms(self) -> float:
        if self.budget_ms is None:
            return float("inf")
        return self.budget_ms - self.elapsed_ms()

    def expired(self) -> bool:
        if self.budget_ms is None:
            return False
        return self.elapsed_ms() >= self.budget_ms

    def raise_expired(self) -> None:
        """Raise `DeadlineExceeded` describing this budget."""
        elapsed = self.elapsed_ms()
        raise DeadlineExceeded(
            f"query exceeded its {self.budget_ms:.1f} ms budget "
            f"({elapsed:.1f} ms elapsed)",
            elapsed_ms=elapsed, budget_ms=self.budget_ms)

    def check(self) -> None:
        """Raise if expired -- used where partial handling is a layer up."""
        if self.expired():
            self.raise_expired()

    def to_wire(self) -> dict:
        """Serialize for a hop to a worker thread or process on this host.

        The wire form carries the *remaining* budget, the policy and the
        instant it was written on `time.monotonic`, one clock for every
        process on the host; `from_wire` charges the time since, so a
        call that waited in an executor's queue gets only what is left.
        """
        remaining = self.remaining_ms()
        return {"timeout_ms": (None if remaining == float("inf")
                               else max(0.0, remaining)),
                "on_deadline": self.on_deadline,
                "sent": time.monotonic()}

    @classmethod
    def from_wire(cls, wire: dict) -> "Deadline":
        """Rebuild a deadline from `to_wire` output, less the time since
        it was sent."""
        budget = wire.get("timeout_ms")
        if budget is not None:
            budget = max(0.0, budget - (time.monotonic() - wire["sent"]) * 1e3)
        return cls(budget, wire.get("on_deadline", RAISE))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        budget = "inf" if self.budget_ms is None else f"{self.budget_ms:g}ms"
        return f"<Deadline {budget} on_deadline={self.on_deadline}>"


# The paper frames top-K as "answer quickly by not computing
# everything"; a budgeted query is the serving-layer form of the same
# idea, so the API accepts either name.
QueryBudget = Deadline


_tls = threading.local()


def active_deadline() -> Optional[Deadline]:
    """The deadline installed by the innermost `deadline_scope`, if any."""
    return getattr(_tls, "deadline", None)


class deadline_scope:
    """Install `deadline` as the thread's active deadline: a context
    manager, and a class because the level loop enters one per level.
    Scopes nest; ``None`` installs nothing but still shadows an outer
    scope, so an unbudgeted query inside a budgeted batch stays
    unbudgeted."""

    def __init__(self, deadline: Optional[Deadline]):
        self.deadline = deadline

    def __enter__(self) -> Optional[Deadline]:
        self.previous = getattr(_tls, "deadline", None)
        _tls.deadline = self.deadline
        return self.deadline

    def __exit__(self, *exc_info) -> None:
        _tls.deadline = self.previous


def check_active() -> None:
    """Poll the thread's active deadline; raise `DeadlineExceeded` when
    it has expired.  The level loop, which polls it at each level
    boundary, catches this and downgrades per the deadline's policy."""
    deadline = getattr(_tls, "deadline", None)
    if deadline is not None and deadline.expired():
        deadline.raise_expired()
