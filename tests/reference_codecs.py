"""Scalar column decoders, kept as the tests' differential reference.

`repro.index.compression` decodes every codec in numpy, a whole stream
at a time; these are the byte-at-a-time loops that did it before -- each
walks the payload with `read_varint` (FOR bit by bit), exactly as a C
implementation would -- so the differential tests have an independent
account of what a payload decodes to.  They expect well-formed payloads:
refusing hostile ones is the library decoders' job, not theirs.
`runs` splits a decoded column into the runs the library hands out.
"""

from typing import List

import numpy as np

from repro.index.compression import (_FOR_HEADER_BYTES, SCHEME_DELTA,
                                     SCHEME_FOR, SCHEME_RLE, SCHEME_VARINT,
                                     VARINT_MAX, _for_block_layout,
                                     as_byte_array, read_varint)


def decode_varints(data) -> List[int]:
    """A whole varint stream as a list of Python ints; `ValueError` on a
    value past 64 bits or a dangling continuation byte."""
    arr = as_byte_array(data)
    n = int(np.count_nonzero(arr < 0x80))
    values: List[int] = [0] * n
    pos = 0
    for i in range(n):
        value, pos = read_varint(arr, pos)
        if value > VARINT_MAX:
            raise ValueError(f"varint at byte {pos} overflows 64 bits")
        values[i] = value
    if pos != len(arr):
        raise ValueError("truncated varint stream")
    return values


def decode_delta_blocks(data) -> np.ndarray:
    pos = 0
    count, pos = read_varint(data, pos)
    block_size, pos = read_varint(data, pos)
    values = np.empty(count, dtype=np.int64)
    i = 0
    while i < count:
        first, pos = read_varint(data, pos)
        values[i] = first
        i += 1
        prev = first
        for _ in range(min(block_size - 1, count - i)):
            delta, pos = read_varint(data, pos)
            prev += delta
            values[i] = prev
            i += 1
    return values


def decode_rle(data) -> np.ndarray:
    pos = 0
    count, pos = read_varint(data, pos)
    n_runs, pos = read_varint(data, pos)
    values = np.empty(count, dtype=np.int64)
    i = 0
    value = 0
    for _ in range(n_runs):
        delta, pos = read_varint(data, pos)
        run_len, pos = read_varint(data, pos)
        value += delta
        values[i: i + run_len] = value
        i += run_len
    return values


def decode_varint_column(data) -> np.ndarray:
    pos = 0
    count, pos = read_varint(data, pos)
    values = np.empty(count, dtype=np.int64)
    for i in range(count):
        value, pos = read_varint(data, pos)
        values[i] = np.uint64(value).astype(np.int64)
    return values


def decode_for(data) -> np.ndarray:
    """Bit-at-a-time FOR decoder."""
    arr = as_byte_array(data)
    count = int.from_bytes(bytes(arr[0:4]), "little")
    block_size = int.from_bytes(bytes(arr[4:8]), "little")
    n_blocks, block_n = _for_block_layout(count, block_size)
    values = np.empty(count, dtype=np.int64)
    pos = _FOR_HEADER_BYTES + 9 * n_blocks     # payload cursor, in bytes
    out = 0
    for b in range(n_blocks):
        base = int.from_bytes(
            bytes(arr[_FOR_HEADER_BYTES + 8 * b:
                      _FOR_HEADER_BYTES + 8 * b + 8]), "little")
        width = int(arr[_FOR_HEADER_BYTES + 8 * n_blocks + b])
        n = int(block_n[b])
        for i in range(n):
            delta = 0
            for j in range(width):
                bit_index = i * width + j
                byte = int(arr[pos + (bit_index >> 3)])
                delta = (delta << 1) | ((byte >> (7 - (bit_index & 7))) & 1)
            values[out] = np.uint64((base + delta)
                                    & VARINT_MAX).astype(np.int64)
            out += 1
        pos += (n * width + 7) >> 3
    return values


DECODERS = {
    SCHEME_RLE: decode_rle,
    SCHEME_DELTA: decode_delta_blocks,
    SCHEME_VARINT: decode_varint_column,
    SCHEME_FOR: decode_for,
}


def decompress_column(scheme: str, data) -> np.ndarray:
    return DECODERS[scheme](data)


def runs(values):
    """``(distinct, run_starts)`` of a sorted column, one row at a
    time: what `repro.index.compression.decompress_column` must return
    for the column."""
    distinct: List[int] = []
    starts: List[int] = []
    for row, value in enumerate(np.asarray(values).tolist()):
        if not distinct or value != distinct[-1]:
            distinct.append(value)
            starts.append(row)
    starts.append(len(values))
    return (np.asarray(distinct, dtype=np.int64),
            np.asarray(starts, dtype=np.int64))
