"""Fault-injectable, retryable file primitives for the persistence layer.

`read_bytes` is the single chokepoint every `repro.diskdb` read goes
through: chunked reads (so short-read faults are observable), optional
`FaultInjector` wrapping, optional `RetryPolicy` healing, and byte
counters.  `write_chunks` / `write_bytes` / `fsync_dir` are the building
blocks of the atomic save protocol (stream to a temp dir, digesting as
the bytes are written, fsync data, `os.replace` into place, fsync every
directory that received a rename, manifest last).

`map_bytes` is the zero-copy sibling: it memory-maps a file read-only
and returns a `MappedFile` whose buffer the container loader hands to
``np.frombuffer`` directly -- columns materialize as views over the
page cache, and forked worker processes share the mapping for free.

Every whole-payload materialization (a `read_bytes` call, or the
`map_bytes` fallback when a fault injector forces the copying path) is
recorded in `COPY_STATS`, the seam the zero-copy tests assert against:
loading a database must record *no* copy event for the
columnar file.
"""

from __future__ import annotations

import mmap
import os
import threading
from typing import Dict, Iterable, Optional, Union

from ..obs.account import active_account
from .checksum import ALGORITHMS
from .faults import FaultInjector
from .retry import RetryPolicy

CHUNK_SIZE = 64 * 1024


class CopyStats:
    """Counts whole-payload ``bytes`` materializations, per read op.

    The zero-copy contract of the load path is asserted
    through this seam: `read_bytes` records every copy it makes
    (labelled with its ``op``), `map_bytes` records nothing on the
    mmap path, so a test can reset the stats, load a database, and
    check the columnar op never copied.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self.events: Dict[str, int] = {}
        self.bytes: Dict[str, int] = {}

    def record(self, op: str, nbytes: int) -> None:
        with self._lock:
            self.events[op] = self.events.get(op, 0) + 1
            self.bytes[op] = self.bytes.get(op, 0) + nbytes

    def reset(self) -> None:
        with self._lock:
            self.events.clear()
            self.bytes.clear()

    def copies(self, op: str) -> int:
        """Copy events recorded for `op` (0 when it never copied)."""
        with self._lock:
            return self.events.get(op, 0)


#: Process-wide copy accounting; tests reset it around a load.
COPY_STATS = CopyStats()


def read_bytes(path: str, injector: Optional[FaultInjector] = None,
               retry: Optional[RetryPolicy] = None,
               op: str = "read") -> bytes:
    """Read a whole file in chunks, with faults and retries applied.

    Each retry attempt reopens the file and restarts from offset zero,
    so a transient mid-read error never yields a spliced buffer.
    """

    def attempt() -> bytes:
        handle = open(path, "rb")
        if injector is not None:
            handle = injector.wrap(handle, path)
        chunks = []
        with handle:
            while True:
                chunk = handle.read(CHUNK_SIZE)
                if not chunk:
                    break
                chunks.append(chunk)
        return b"".join(chunks)

    if retry is None:
        data = attempt()
    else:
        data = retry.call(attempt, op=op)
    COPY_STATS.record(op, len(data))
    account = active_account()
    if account is not None:
        account.record_copy(len(data))
    return data


class MappedFile:
    """A read-only memory mapping plus the handles that keep it alive.

    Behaves like a buffer (`len`, slicing via `view`) and is accepted
    everywhere the container readers take bytes.  Keep a reference for
    as long as any `np.frombuffer` view of it is in use -- the columnar
    loader stores it on the index object.  ``close`` is optional: the
    mapping is released when the object is garbage-collected, and
    closing while numpy views exist would invalidate them.
    """

    def __init__(self, path: str):
        self.path = path
        with open(path, "rb") as handle:
            # length=0 maps the whole file; an empty file cannot be
            # mapped, so fall back to an empty buffer.
            size = os.fstat(handle.fileno()).st_size
            if size == 0:
                self._mmap = None
                self.view = memoryview(b"")
            else:
                self._mmap = mmap.mmap(handle.fileno(), 0,
                                       access=mmap.ACCESS_READ)
                self.view = memoryview(self._mmap)

    def __len__(self) -> int:
        return len(self.view)

    def close(self) -> None:  # pragma: no cover - explicit cleanup only
        self.view.release()
        if self._mmap is not None:
            self._mmap.close()


def map_bytes(path: str, injector: Optional[FaultInjector] = None,
              retry: Optional[RetryPolicy] = None, op: str = "map"
              ) -> Union[MappedFile, bytes]:
    """Memory-map `path` read-only; the zero-copy read primitive.

    With a `FaultInjector` installed the mapping cannot observe
    injected faults (the kernel serves pages directly), so the call
    degrades to `read_bytes` -- a copy, recorded in `COPY_STATS` as
    usual -- keeping the fault-injection test matrix meaningful for
    mapped databases.  Callers treat the two return shapes
    uniformly: both support ``len`` and expose bytes to
    ``np.frombuffer`` (pass ``MappedFile.view``).
    """
    if injector is not None:
        return read_bytes(path, injector=injector, retry=retry, op=op)
    return MappedFile(path)


def write_bytes(path: str, data: bytes, fsync: bool = True) -> None:
    """Write `data` to `path` and optionally fsync the file."""
    with open(path, "wb") as handle:
        handle.write(data)
        if fsync:
            handle.flush()
            os.fsync(handle.fileno())


def write_chunks(path: str, chunks: Iterable, algorithm: str,
                 fsync: bool = True) -> str:
    """Write `chunks` (bytes-like pieces, in order) to `path`, optionally
    fsync the file, and return the whole file's hex digest under
    `algorithm` -- one running checksum continued over each piece as it
    is written, so no piece is kept once it is on its way to disk."""
    update = ALGORITHMS[algorithm]
    value = 0
    with open(path, "wb") as handle:
        for chunk in chunks:
            handle.write(chunk)
            value = update(chunk, value)
        if fsync:
            handle.flush()
            os.fsync(handle.fileno())
    return f"{value:08x}"


def fsync_dir(path: str) -> None:
    """fsync a directory so renames inside it are durable (POSIX)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    finally:
        os.close(fd)
