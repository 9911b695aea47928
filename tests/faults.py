"""A faulty disk for the read path (the disk fault matrix).

A `FaultInjector` decides, per read call, whether to misbehave and how;
`FaultyFile` applies the decision to a real file handle.  Four fault
kinds:

* ``io-error``   -- the read raises `InjectedFault` (an `IOError`).
  Transient by construction: the next attempt re-rolls, so a bounded
  retry heals it.  ``error_rate=1.0`` models a permanent fault.
* ``short-read`` -- the read returns a truncated chunk and the file
  reports EOF, so the caller sees silently truncated bytes.  Not an
  exception: corruption detection (checksums) must catch it.
* ``bit-flip``   -- one bit of the returned chunk is flipped; again
  only checksums can catch it.
* ``latency``    -- the read sleeps before returning (slow disk).

Faults are drawn either probabilistically (seeded RNG: a given seed
always injects the same faults at the same read indices, so suites are
reproducible) or from a ``script`` -- an explicit per-read sequence of
fault names (``None`` for a clean read), exhausted-then-clean.

`faulty_disk` puts an injector under every database read: it wraps
`repro.reliability.io.open_file`, the one opener of the read path, and
swaps the mapping `repro.diskdb` takes for the copying read (the kernel
serves a mapping's pages, so faults on it would not show).  Or wrap any
binary file handle directly::

    inj = FaultInjector(error_rate=0.2, seed=1)
    with inj.wrap(open(path, "rb"), path) as fh:
        data = fh.read()

Injected faults are counted per kind in ``injector.injected``.
"""

from __future__ import annotations

import errno
import os
import random
import time
from typing import Callable, Dict, Iterable, List, Optional

from repro import diskdb
from repro.reliability import io
from repro.reliability.retry import DEFAULT_POLICY

#: The opener the library was loaded with: the wrappers below go over
#: it, never over one another.
_OPEN = io.open_file

IO_ERROR = "io-error"
SHORT_READ = "short-read"
BIT_FLIP = "bit-flip"
LATENCY = "latency"
FAULT_KINDS = (IO_ERROR, SHORT_READ, BIT_FLIP, LATENCY)


class InjectedFault(IOError):
    """An error produced by `FaultInjector` -- transient unless the
    injector is configured otherwise."""

    def __init__(self, message: str, kind: str = IO_ERROR,
                 path: Optional[str] = None):
        super().__init__(message)
        self.kind = kind
        self.path = path


class FaultInjector:
    """Per-read fault decisions, probabilistic or scripted.

    Parameters
    ----------
    error_rate, short_read_rate, bit_flip_rate, latency_rate:
        Independent per-read probabilities in [0, 1].  At most one
        fault fires per read; they are tested in the order above.
    latency_ms:
        Sleep applied when a latency fault fires.
    seed:
        RNG seed -- the whole fault sequence is a pure function of it.
    script:
        Explicit fault sequence overriding the rates: an iterable of
        fault names or ``None`` entries, one per read call, clean once
        exhausted.
    sleep:
        Injectable sleep (tests pass a no-op).
    """

    def __init__(self, error_rate: float = 0.0,
                 short_read_rate: float = 0.0,
                 bit_flip_rate: float = 0.0,
                 latency_rate: float = 0.0,
                 latency_ms: float = 0.0,
                 seed: int = 0,
                 script: Optional[Iterable[Optional[str]]] = None,
                 sleep: Callable[[float], None] = time.sleep):
        for name, rate in (("error_rate", error_rate),
                           ("short_read_rate", short_read_rate),
                           ("bit_flip_rate", bit_flip_rate),
                           ("latency_rate", latency_rate)):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        self.error_rate = error_rate
        self.short_read_rate = short_read_rate
        self.bit_flip_rate = bit_flip_rate
        self.latency_rate = latency_rate
        self.latency_ms = latency_ms
        self.seed = seed
        self._rng = random.Random(seed)
        self._script: Optional[List[Optional[str]]] = (
            list(script) if script is not None else None)
        self._script_pos = 0
        self._sleep = sleep
        self.reads = 0
        self.injected: Dict[str, int] = {kind: 0 for kind in FAULT_KINDS}

    def reset(self) -> None:
        """Rewind to the deterministic start (same seed, same faults)."""
        self._rng = random.Random(self.seed)
        self._script_pos = 0
        self.reads = 0
        self.injected = {kind: 0 for kind in FAULT_KINDS}

    def next_fault(self) -> Optional[str]:
        """Decide the fault (or None) for the next read call."""
        self.reads += 1
        if self._script is not None:
            if self._script_pos >= len(self._script):
                return None
            fault = self._script[self._script_pos]
            self._script_pos += 1
            if fault is not None and fault not in FAULT_KINDS:
                raise ValueError(f"unknown scripted fault {fault!r}; "
                                 f"one of {FAULT_KINDS}")
            return self._record(fault)
        for kind, rate in ((IO_ERROR, self.error_rate),
                           (SHORT_READ, self.short_read_rate),
                           (BIT_FLIP, self.bit_flip_rate),
                           (LATENCY, self.latency_rate)):
            # One RNG draw per kind regardless of outcome keeps the
            # sequence aligned across reads (reproducible per seed).
            roll = self._rng.random()
            if roll < rate:
                return self._record(kind)
        return None

    def _record(self, kind: Optional[str]) -> Optional[str]:
        if kind is not None:
            self.injected[kind] += 1
        return kind

    def corrupt_offset(self, length: int) -> int:
        """Deterministic position for a bit-flip within a chunk."""
        return self._rng.randrange(max(1, length))

    def wrap(self, fileobj, path: str = "?") -> "FaultyFile":
        """A `FaultyFile` proxy applying this injector to `fileobj`."""
        return FaultyFile(fileobj, self, path)


class FaultyFile:
    """A binary file proxy whose reads consult a `FaultInjector`.

    Only ``read`` misbehaves; everything else forwards to the wrapped
    handle.  Works as a context manager like the handle it wraps.
    """

    def __init__(self, fileobj, injector: FaultInjector, path: str = "?"):
        self._file = fileobj
        self._injector = injector
        self._path = path
        self._forced_eof = False

    def read(self, size: int = -1) -> bytes:
        if self._forced_eof:
            return b""
        fault = self._injector.next_fault()
        if fault == IO_ERROR:
            raise InjectedFault(
                f"injected I/O error reading {self._path}",
                kind=IO_ERROR, path=self._path)
        if fault == LATENCY:
            self._injector._sleep(self._injector.latency_ms / 1000.0)
        data = self._file.read(size)
        if not data:
            return data
        if fault == SHORT_READ:
            # Premature EOF: hand back a truncated chunk and end the
            # stream -- the caller gets fewer bytes than the file holds.
            self._forced_eof = True
            return data[: max(1, len(data) // 2)]
        if fault == BIT_FLIP:
            flipped = bytearray(data)
            pos = self._injector.corrupt_offset(len(flipped))
            flipped[pos] ^= 1 << (pos % 8)
            return bytes(flipped)
        return data

    def close(self) -> None:
        self._file.close()

    def __enter__(self) -> "FaultyFile":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __getattr__(self, name):
        return getattr(self._file, name)


class CopiedFile:
    """What `faulty_disk` hands `repro.diskdb` for a mapping: the file
    read through the opener, with a `MappedFile`'s ``view``."""

    def __init__(self, path: str):
        self.view = io.read_bytes(path)

    def __len__(self) -> int:
        return len(self.view)


def faulty_disk(monkeypatch, injector: FaultInjector,
                max_attempts: Optional[int] = None) -> FaultInjector:
    """Read every database file through `injector` for the rest of the
    test: the opener wrapped, mappings swapped for `CopiedFile`, and
    `DEFAULT_POLICY`'s backoff not slept (`max_attempts` overrides its
    attempts).  Returns `injector`; a second call replaces the first's."""

    def opener(path, mode="rb", *args, **kwargs):
        handle = _OPEN(path, mode, *args, **kwargs)
        return injector.wrap(handle, path) if "r" in mode else handle

    monkeypatch.setattr(io, "open_file", opener)
    monkeypatch.setattr(diskdb, "map_bytes", CopiedFile)
    monkeypatch.setattr(DEFAULT_POLICY, "sleep", lambda _s: None)
    if max_attempts is not None:
        monkeypatch.setattr(DEFAULT_POLICY, "max_attempts", max_attempts)
    return injector


def failing_disk(monkeypatch, name: str) -> None:
    """Every open of a file called `name` raises ``OSError(EIO)``, on
    every attempt, for the rest of the test; the backoff is not
    slept."""

    def opener(path, *args, **kwargs):
        if os.path.basename(path) == name:
            raise OSError(errno.EIO, os.strerror(errno.EIO), path)
        return _OPEN(path, *args, **kwargs)

    monkeypatch.setattr(io, "open_file", opener)
    monkeypatch.setattr(DEFAULT_POLICY, "sleep", lambda _s: None)
