"""Checksums for the persistence layer (CRC32C and CRC32).

Two algorithms, both self-describing on disk (the block framing and
``meta.json`` record which one was used, so readers never guess):

* ``crc32c`` -- the Castagnoli polynomial (iSCSI/ext4), the stronger
  choice for storage.  Uses a native backend (the ``crc32c`` or
  ``google_crc32c`` packages) when one is importable; otherwise a
  table-driven pure-Python fallback (correct but ~9 MiB/s).
* ``crc32``  -- zlib's IEEE CRC-32, C speed everywhere.

`DEFAULT_ALGORITHM` picks ``crc32c`` when a native backend exists and
``crc32`` otherwise, so the default save path never pays the
pure-Python toll -- the ≤5% persistence-overhead budget holds on a bare
CPython install while the format stays CRC32C-ready.

Every function accepts any bytes-like buffer -- ``bytes``,
``memoryview`` or a ``numpy`` byte view -- without copying, which is
what lets the container loader verify CRCs directly against an mmap'd
file (`repro.reliability.io.map_bytes`).
"""

from __future__ import annotations

import zlib
from typing import Callable, Dict, List, Optional

CRC32C_POLY = 0x82F63B78  # reflected Castagnoli polynomial

_crc32c_table: Optional[List[int]] = None


def _build_table() -> List[int]:
    table = []
    for i in range(256):
        crc = i
        for _ in range(8):
            crc = (crc >> 1) ^ CRC32C_POLY if crc & 1 else crc >> 1
        table.append(crc)
    return table


def _crc32c_pure(data: bytes, value: int = 0) -> int:
    """Table-driven CRC32C; the dependency-free fallback."""
    global _crc32c_table
    if _crc32c_table is None:
        _crc32c_table = _build_table()
    table = _crc32c_table
    crc = value ^ 0xFFFFFFFF
    for byte in data:
        crc = table[(crc ^ byte) & 0xFF] ^ (crc >> 8)
    return crc ^ 0xFFFFFFFF


def _native_crc32c() -> Optional[Callable[[bytes, int], int]]:
    # Native backends may reject a memoryview; `_buffer_safe` retries
    # with a materialized copy only in that case, so the zero-copy path
    # stays zero-copy wherever the backend allows it.
    try:  # pragma: no cover - depends on the environment
        import crc32c as _c

        return _buffer_safe(lambda data, value=0: _c.crc32c(data, value))
    except ImportError:
        pass
    try:  # pragma: no cover - depends on the environment
        import google_crc32c as _g

        return _buffer_safe(lambda data, value=0: _g.extend(value, data))
    except ImportError:
        return None


def _buffer_safe(fn: Callable[..., int]) -> Callable[..., int]:
    def wrapped(data, value: int = 0) -> int:  # pragma: no cover - env
        try:
            return fn(data, value)
        except TypeError:
            return fn(bytes(data), value)
    return wrapped


_NATIVE_CRC32C = _native_crc32c()
HAVE_NATIVE_CRC32C = _NATIVE_CRC32C is not None


def crc32c(data: bytes, value: int = 0) -> int:
    """CRC32C of `data` (optionally continuing from `value`)."""
    if _NATIVE_CRC32C is not None:  # pragma: no cover - env-dependent
        return _NATIVE_CRC32C(data, value)
    return _crc32c_pure(data, value)


def crc32(data: bytes, value: int = 0) -> int:
    """zlib's IEEE CRC-32 (C speed)."""
    return zlib.crc32(data, value) & 0xFFFFFFFF


ALGORITHMS: Dict[str, Callable[..., int]] = {
    "crc32c": crc32c,
    "crc32": crc32,
}

# Numeric ids used by the on-disk block framing (one byte after the
# magic); names used by meta.json.  Stable -- never renumber.
ALGORITHM_IDS = {"crc32": 0, "crc32c": 1}
ALGORITHM_NAMES = {v: k for k, v in ALGORITHM_IDS.items()}

DEFAULT_ALGORITHM = "crc32c" if HAVE_NATIVE_CRC32C else "crc32"


def checksum(data: bytes, algo: Optional[str] = None) -> int:
    """Digest of `data` under `algo` (default `DEFAULT_ALGORITHM`)."""
    algo = algo if algo is not None else DEFAULT_ALGORITHM
    try:
        fn = ALGORITHMS[algo]
    except KeyError:
        raise ValueError(f"unknown checksum algorithm {algo!r}; "
                         f"one of {sorted(ALGORITHMS)}")
    return fn(data)


def hex_digest(data: bytes, algo: Optional[str] = None) -> str:
    """The digest as a fixed-width hex string (what meta.json stores)."""
    return f"{checksum(data, algo):08x}"


def verify(data: bytes, expected_hex: str, algo: Optional[str] = None) -> bool:
    """True when `data` hashes to `expected_hex` under `algo`."""
    return hex_digest(data, algo) == expected_hex.lower()
