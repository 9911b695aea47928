"""Reliability layer: deadlines, retried reads, checksummed persistence.

Three concerns, one package (see ``docs/RELIABILITY.md``):

* **Deadlines** (`Deadline` / `QueryBudget`, `deadline_scope`) --
  wall-clock budgets with a ``raise`` or ``partial`` expiry policy,
  cooperatively checked by the engines' level loop, so a pathological query
  degrades into "best found within budget" instead of running forever.
* **Retry** (`RetryPolicy`, `DEFAULT_POLICY`) -- a bounded
  backoff-with-jitter wrapper every database read runs under, so
  transient I/O errors heal and permanent ones surface as the typed
  `RetryExhaustedError` (and, from `repro.diskdb`, `DatabaseCorruptError`).
* **Checksummed atomic persistence** (`checksum`, plus the save/load
  protocol in `repro.diskdb`) -- per-block and whole-file digests and a
  temp-dir + ``os.replace`` save order, so a crash or a flipped bit is
  detected (`DatabaseCorruptError`), never absorbed.
"""

from .checksum import (ALGORITHMS, DEFAULT_ALGORITHM, HAVE_NATIVE_CRC32C,
                       checksum, crc32, crc32c, hex_digest, verify)
from .deadline import (PARTIAL, POLICIES, RAISE, Deadline, QueryBudget,
                       active_deadline, check_active, deadline_scope)
from .errors import (DatabaseCorruptError, DatabaseFormatError,
                     DeadlineExceeded, RetryExhaustedError,
                     ShardPayloadError, WorkerCrashError)
from .io import fsync_dir, read_bytes, write_bytes
from .retry import DEFAULT_POLICY, RetryPolicy

__all__ = [
    "ALGORITHMS",
    "DEFAULT_ALGORITHM",
    "HAVE_NATIVE_CRC32C",
    "checksum",
    "crc32",
    "crc32c",
    "hex_digest",
    "verify",
    "PARTIAL",
    "POLICIES",
    "RAISE",
    "Deadline",
    "QueryBudget",
    "active_deadline",
    "check_active",
    "deadline_scope",
    "DatabaseCorruptError",
    "DatabaseFormatError",
    "DeadlineExceeded",
    "RetryExhaustedError",
    "ShardPayloadError",
    "WorkerCrashError",
    "fsync_dir",
    "read_bytes",
    "write_bytes",
    "DEFAULT_POLICY",
    "RetryPolicy",
]
