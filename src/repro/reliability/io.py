"""File primitives for the persistence layer.

Every file this module touches is opened through `open_file`, one
module-level opener (the builtin `open`); a test substitutes it to put
a faulty disk under the whole read path.  `read_bytes` reads a whole
file in chunks and counts the copy; `map_bytes` is its zero-copy
sibling: it memory-maps a file read-only and returns a `MappedFile`
whose buffer the container loader hands to ``np.frombuffer`` directly
-- columns materialize as views over the page cache, and forked worker
processes share the mapping for free.  Retrying is the caller's:
`repro.diskdb` runs every read under `retry.DEFAULT_POLICY`.

`write_chunks` / `write_bytes` / `fsync_dir` are the building blocks
of the atomic save protocol (stream to a temp dir, digesting as the
bytes are written, fsync data, `os.replace` into place, fsync every
directory that received a rename, manifest last).

Every whole-payload materialization (a `read_bytes` call) is recorded
in `COPY_STATS`, the seam the zero-copy tests assert against: loading
a database must record *no* copy event for the columnar file.
"""

from __future__ import annotations

import mmap
import os
import threading
from typing import Dict, Iterable

from ..obs.account import active_account
from .checksum import ALGORITHMS

#: The opener of every file read or written here.
open_file = open

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


def read_bytes(path: str, op: str = "read") -> bytes:
    """Read a whole file in chunks (so a short read shows), counting
    the copy under `op`."""
    chunks = []
    with open_file(path, "rb") as handle:
        while True:
            chunk = handle.read(CHUNK_SIZE)
            if not chunk:
                break
            chunks.append(chunk)
    data = b"".join(chunks)
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
        with open_file(path, "rb") as handle:
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


def map_bytes(path: str) -> MappedFile:
    """Memory-map `path` read-only; the zero-copy read primitive."""
    return MappedFile(path)


def write_bytes(path: str, data: bytes, fsync: bool = True) -> None:
    """Write `data` to `path` and optionally fsync the file."""
    with open_file(path, "wb") as handle:
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
    with open_file(path, "wb") as handle:
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
