"""Scalar column codecs and the per-column container writer, kept as
the tests' differential reference.

`repro.index.compression` decodes every codec in numpy, a whole stream
at a time; the decoders here are the byte-at-a-time loops that did it
before -- each walks the payload with `read_varint` (FOR bit by bit),
exactly as a C implementation would -- so the differential tests have
an independent account of what a payload decodes to.  They expect
well-formed payloads: refusing hostile ones is the library decoders'
job, not theirs.  `runs` splits a decoded column into the runs the
library hands out.

The library also encodes in bulk, a batch of columns at a time; the
encoders here are the per-column ones it replaced: the Python varint
loop, each codec's scalar encoder, `choose_codec`'s decision list with
every size summed a value at a time in Python ints, and the container
writer that ran it column by column (`serialize_payload`,
`serialize_container`).  The library's bytes must equal theirs.
"""

import struct
from typing import List, Sequence

import numpy as np

from repro.index import storage
from repro.index.compression import (_FOR_HEADER_BYTES, CODECS,
                                     DEFAULT_BLOCK_SIZE, SCHEME_DELTA,
                                     SCHEME_FOR, SCHEME_IDS, SCHEME_RLE,
                                     SCHEME_VARINT, VARINT_MAX,
                                     _for_block_layout, as_byte_array,
                                     encode_for, read_varint, varint_size)
from repro.reliability.checksum import (ALGORITHM_IDS, DEFAULT_ALGORITHM,
                                        checksum)


# ---------------------------------------------------------------------------
# Encoders: one column at a time, one value at a time
# ---------------------------------------------------------------------------

def encode_varints(values) -> bytes:
    out = bytearray()
    for value in values:
        value = int(value)
        if value < 0:
            raise ValueError("varints are unsigned")
        while value >= 0x80:
            out.append((value & 0x7F) | 0x80)
            value >>= 7
        out.append(value)
    return bytes(out)


def encode_delta_blocks(values, block_size: int = DEFAULT_BLOCK_SIZE
                        ) -> bytes:
    values = [int(v) for v in values]
    stream = [len(values), block_size]
    for i, value in enumerate(values):
        if i % block_size == 0:
            stream.append(value)
        elif value < values[i - 1]:
            raise ValueError("delta blocks need a sorted column")
        else:
            stream.append(value - values[i - 1])
    return encode_varints(stream)


def encode_rle(values) -> bytes:
    values = [int(v) for v in values]
    pairs: List[int] = []
    prev = 0
    for i, value in enumerate(values):
        if i and value < values[i - 1]:
            raise ValueError("RLE needs a sorted column")
        if i and value == values[i - 1]:
            pairs[-1] += 1
        else:
            pairs += [value - prev, 1]
            prev = value
    return encode_varints([len(values), len(pairs) // 2, *pairs])


def encode_varint_column(values) -> bytes:
    return encode_varints([len(values), *values])


ENCODERS = {
    SCHEME_RLE: lambda values, block_size: encode_rle(values),
    SCHEME_DELTA: encode_delta_blocks,
    SCHEME_VARINT: lambda values, block_size: encode_varint_column(values),
    SCHEME_FOR: encode_for,
}


def for_size(values: Sequence[int], block_size: int) -> int:
    """Bytes `encode_for` takes: its frame, and per block its values
    times the bit length of its range."""
    size = _FOR_HEADER_BYTES
    for lo in range(0, len(values), block_size):
        block = values[lo: lo + block_size]
        size += 9 + (len(block) * (max(block) - min(block)).bit_length()
                     + 7) // 8
    return size


def choose_codec(values, codecs=CODECS,
                 block_size: int = DEFAULT_BLOCK_SIZE):
    """The decision list, one column at a time (see
    `repro.index.compression.choose_codec`)."""
    for scheme in codecs:
        if scheme not in ENCODERS:
            raise ValueError(f"unknown compression scheme {scheme!r}")
    ints = [int(v) for v in values]
    n = len(ints)
    pairs = list(zip(ints, ints[1:]))
    ranked = list(CODECS)
    if any(b < a for a, b in pairs):
        sizes = {SCHEME_VARINT: varint_size(n)
                 + sum(varint_size(v) for v in ints),
                 SCHEME_FOR: for_size(ints, block_size)}
        ranked = sorted(sizes, key=sizes.get)
    elif n:
        runs = 1 + sum(a != b for a, b in pairs)
        if 2 * runs > n:
            sizes = {
                SCHEME_DELTA: varint_size(block_size)
                + sum(varint_size(b - a) for a, b in pairs),
                SCHEME_VARINT: sum(varint_size(v) for v in ints[1:]),
            }
            if n >= 32:
                sizes[SCHEME_FOR] = for_size(ints, block_size) \
                    - varint_size(n) - varint_size(ints[0])
            ranked = sorted(sizes, key=sizes.get) \
                + [s for s in CODECS if s not in sizes]
        elif 2 * runs == n and ints[-1] < 0x80:
            ranked.insert(0, SCHEME_VARINT)
    scheme = next((s for s in ranked if s in codecs), None)
    if scheme is None:
        raise ValueError("no candidate codec can encode this column")
    return scheme, ENCODERS[scheme](values, block_size)


# ---------------------------------------------------------------------------
# The container writer, one term and one column at a time
# ---------------------------------------------------------------------------

def _align8(pos: int) -> int:
    return (pos + 7) & ~7


def encode_lengths(lengths) -> bytes:
    """The sequence lengths as a varint column of (length, run) pairs."""
    pairs: List[int] = []
    for i, length in enumerate(int(x) for x in lengths):
        if i and length == pairs[-2]:
            pairs[-1] += 1
        else:
            pairs += [length, 1]
    return encode_varint_column(pairs)


def serialize_payload(postings) -> bytes:
    """One term's payload: `repro.index.storage`'s layout."""
    n_seqs = len(postings)
    max_len = int(postings.max_len)
    columns: List[bytes] = []
    schemes = bytearray(max_len)
    for level, values in enumerate(postings.level_values(), 1):
        scheme, payload = choose_codec(values)
        schemes[level - 1] = SCHEME_IDS[scheme]
        columns.append(payload)
    lengths = encode_lengths(postings.lengths)
    level_offs_off = storage._PAYLOAD_HEADER.size
    level_lens_off = level_offs_off + 8 * max_len
    schemes_off = level_lens_off + 8 * max_len
    lengths_off = _align8(schemes_off + max_len)
    cursor = _align8(lengths_off + len(lengths))
    scores = np.asarray(postings.scores, dtype=np.float64).tobytes()
    scores_off = cursor if scores else 0
    cursor = _align8(cursor + len(scores))
    level_offs: List[int] = []
    for payload in columns:
        level_offs.append(cursor)
        cursor = _align8(cursor + len(payload))
    out = bytearray(cursor)
    storage._PAYLOAD_HEADER.pack_into(out, 0, n_seqs, max_len,
                                      storage.SCORES_EXACT, lengths_off,
                                      len(lengths), scores_off)
    for i, (off, payload) in enumerate(zip(level_offs, columns)):
        out[level_offs_off + 8 * i: level_offs_off + 8 * i + 8] = \
            off.to_bytes(8, "little")
        out[level_lens_off + 8 * i: level_lens_off + 8 * i + 8] = \
            len(payload).to_bytes(8, "little")
        out[off: off + len(payload)] = payload
    out[schemes_off: schemes_off + max_len] = schemes
    out[lengths_off: lengths_off + len(lengths)] = lengths
    out[scores_off: scores_off + len(scores)] = scores
    return bytes(out)


def serialize_container(index, algorithm: str = DEFAULT_ALGORITHM) -> bytes:
    """The whole container, term by term."""
    out = [struct.pack("<4sB3xQ", storage.MAGIC_COLUMNAR,
                       ALGORITHM_IDS[algorithm], len(index.vocabulary))]
    for term in index.vocabulary:
        payload = serialize_payload(index.term_postings(term))
        term_bytes = term.encode("utf-8")
        out += [struct.pack("<IQI", len(term_bytes), len(payload),
                            checksum(payload, algorithm)),
                term_bytes, bytes(-len(term_bytes) % 8), payload]
    return b"".join(out)


# ---------------------------------------------------------------------------
# Decoders
# ---------------------------------------------------------------------------


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
