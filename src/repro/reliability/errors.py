"""Typed errors of the reliability layer.

These live at the bottom of the import graph (stdlib only) so every
layer -- `repro.index.storage`, `repro.index.lazydisk`, `repro.diskdb`,
`repro.api`, the CLI -- can raise and catch them without cycles.

Hierarchy::

    ValueError
      DatabaseFormatError      directory malformed / version mismatch
        DatabaseCorruptError   bytes present but provably wrong (checksum)
    TimeoutError
      DeadlineExceeded         a query budget expired with policy "raise"
    OSError
      InjectedFault            a fault-injection error (transient by intent)
      RetryExhaustedError      retries used up; the fault is permanent
      WorkerCrashError         a pool worker died mid-task (transient: the
                               pool is rebuilt and a retry usually lands)
      ShardPayloadError        a shard reply failed structural validation
                               (corrupt bytes at the pool boundary)
"""

from __future__ import annotations

from typing import Optional


class DatabaseFormatError(ValueError):
    """A database directory is missing pieces, mismatched or unreadable."""


class DatabaseCorruptError(DatabaseFormatError):
    """Stored bytes fail verification: a checksum mismatch, truncated
    framing, or an impossible field.  Carries the offending file and,
    when known, the keyword whose column block is bad."""

    def __init__(self, message: str, file: Optional[str] = None,
                 term: Optional[str] = None):
        super().__init__(message)
        self.file = file
        self.term = term


class DeadlineExceeded(TimeoutError):
    """A query ran past its `Deadline` under the ``raise`` policy."""

    def __init__(self, message: str, elapsed_ms: Optional[float] = None,
                 budget_ms: Optional[float] = None):
        super().__init__(message)
        self.elapsed_ms = elapsed_ms
        self.budget_ms = budget_ms


class InjectedFault(IOError):
    """An error produced by `FaultInjector` -- transient unless the
    injector is configured otherwise."""

    def __init__(self, message: str, kind: str = "io-error",
                 path: Optional[str] = None):
        super().__init__(message)
        self.kind = kind
        self.path = path


class RetryExhaustedError(OSError):
    """A retried operation failed on every attempt; the last underlying
    error is chained as ``__cause__``."""

    def __init__(self, message: str, attempts: int = 0,
                 op: Optional[str] = None):
        super().__init__(message)
        self.attempts = attempts
        self.op = op


class WorkerCrashError(OSError):
    """A process-pool worker died mid-task (SIGKILL, OOM, segfault) and
    poisoned its `ProcessPoolExecutor`.  The supervising layer quarantines
    and rebuilds the pool, so from the caller's perspective this is
    *transient*: a retry against the rebuilt pool usually succeeds."""

    def __init__(self, message: str, shard: Optional[int] = None):
        super().__init__(message)
        self.shard = shard


class ShardPayloadError(OSError):
    """A shard reply crossed the pool boundary structurally corrupt
    (wrong shape / non-finite fields).  Treated like an I/O fault:
    transient, retryable, and never silently merged."""

    def __init__(self, message: str, shard: Optional[int] = None):
        super().__init__(message)
        self.shard = shard
