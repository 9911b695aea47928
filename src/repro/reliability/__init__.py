"""Reliability layer: deadlines, fault injection, checksummed persistence.

Three concerns, one package (see ``docs/RELIABILITY.md``):

* **Deadlines** (`Deadline` / `QueryBudget`, `deadline_scope`) --
  wall-clock budgets with a ``raise`` or ``partial`` expiry policy,
  cooperatively checked by the engines' level loop, so a pathological query
  degrades into "best found within budget" instead of running forever.
* **Fault injection + retry** (`FaultInjector`, `RetryPolicy`) --
  probabilistic or scripted disk faults plus a bounded
  backoff-with-jitter wrapper, so transient I/O errors heal and
  permanent ones surface as the typed `RetryExhaustedError`.
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
                     DeadlineExceeded, InjectedFault, RetryExhaustedError,
                     ShardPayloadError, WorkerCrashError)
from .faults import (BIT_FLIP, FAULT_KINDS, IO_ERROR, LATENCY, SHORT_READ,
                     FaultInjector, FaultyFile)
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
    "InjectedFault",
    "RetryExhaustedError",
    "ShardPayloadError",
    "WorkerCrashError",
    "BIT_FLIP",
    "FAULT_KINDS",
    "IO_ERROR",
    "LATENCY",
    "SHORT_READ",
    "FaultInjector",
    "FaultyFile",
    "fsync_dir",
    "read_bytes",
    "write_bytes",
    "DEFAULT_POLICY",
    "RetryPolicy",
]
