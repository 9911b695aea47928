"""Column compression (paper section III-D).

The paper's two schemes, chosen per column by the paper's rule:

* **Delta blocks** for columns with many distinct values: each disk
  block stores the first JDewey number in full and every subsequent
  value as a delta from its predecessor (sorted columns make the deltas
  non-negative and small).
* **Run-length triples** for columns with few distinct values: a run of
  the same number is one ``(value, first_row, count)`` triple.  The
  first row is implied by the running sum of counts, so the encoded form
  stores ``(value_delta, count)`` pairs; the logical triple view is what
  the range-checking of section III-E operates on.

and two the on-disk container may pick instead when they are smaller:
plain **varints** and **frame-of-reference** bit packing.
`choose_codec` is the one selector; restricted to `PAPER_CODECS` it is
the paper's rule, which is what Table I and the compression ablation
size.  All encoders round-trip.

Decoding has two execution strategies, mirroring the ``vectorized=``
convention of the join-based level loop:

* the **scalar** reference decoders walk the byte stream with
  `read_varint`, exactly as a C implementation would;
* the **vectorized** decoders (default) lift the whole stream into
  numpy at once -- continuation-bit masks locate varint boundaries,
  shifted 7-bit payloads fold with ``np.bitwise_or.reduceat``, and the
  delta/RLE reconstructions are ``np.cumsum`` / ``np.repeat`` over the
  decoded stream.  Both paths are differentially tested; the scalar one
  is the correctness reference and what `decompress_column` runs on
  payloads under `VECTORIZED_MIN_BYTES`.

Every decoder accepts ``bytes``, ``memoryview`` or a ``uint8`` ndarray,
so the mmap path can hand columns straight off the file mapping without
an intermediate copy.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple, Union

import numpy as np

DEFAULT_BLOCK_SIZE = 128
RLE_DISTINCT_RATIO = 0.5

SCHEME_DELTA = "delta"
SCHEME_RLE = "rle"
SCHEME_VARINT = "varint"
SCHEME_FOR = "for"

#: Stable on-disk codec ids.  The container records `choose_codec`'s
#: pick per column here, so `decompress_column` dispatches on the
#: recorded id without sniffing.
SCHEME_IDS = {SCHEME_RLE: 0, SCHEME_DELTA: 1, SCHEME_VARINT: 2,
              SCHEME_FOR: 3}
SCHEME_NAMES = {sid: name for name, sid in SCHEME_IDS.items()}

#: Every codec `choose_codec` may pick, in tie-break order.
CODECS = (SCHEME_RLE, SCHEME_DELTA, SCHEME_FOR, SCHEME_VARINT)
#: The paper's two schemes alone (section III-D): what Table I sizes.
PAPER_CODECS = (SCHEME_RLE, SCHEME_DELTA)

#: The widest value any numpy-backed consumer can represent: decoded
#: columns land in int64/uint64 arrays, so a varint that does not fit
#: in 64 bits is corrupt data, not a bigger integer.
VARINT_MAX = 2 ** 64 - 1
_MAX_VARINT_BYTES = 10  # ceil(64 / 7)

ByteSource = Union[bytes, bytearray, memoryview, np.ndarray]


def as_byte_array(data: ByteSource) -> np.ndarray:
    """View `data` as a uint8 ndarray without copying."""
    if isinstance(data, np.ndarray):
        if data.dtype != np.uint8:
            raise ValueError("byte arrays must be uint8")
        return data
    return np.frombuffer(data, dtype=np.uint8)


def write_varint(out: bytearray, value: int) -> None:
    """Append an unsigned LEB128 varint."""
    if value < 0:
        raise ValueError("varints are unsigned")
    while value >= 0x80:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def read_varint(data: ByteSource, pos: int) -> Tuple[int, int]:
    """Read a varint at `pos`; return (value, next_pos)."""
    result = 0
    shift = 0
    while True:
        byte = int(data[pos])
        pos += 1
        result |= (byte & 0x7F) << shift
        if byte < 0x80:
            return result, pos
        shift += 7


def varint_size(value: int) -> int:
    size = 1
    while value >= 0x80:
        value >>= 7
        size += 1
    return size


def _python_ints(values: Sequence[int]) -> List[int]:
    """`values` as a list -- of Python ints when it was an array: the
    varint loops run several times faster on them than on numpy
    scalars."""
    return values.tolist() if isinstance(values, np.ndarray) \
        else list(values)


def encode_varints(values: Iterable[int]) -> bytes:
    out = bytearray()
    append = out.append
    for value in values:        # `write_varint`, inlined: the hot loop
        if value < 0:
            raise ValueError("varints are unsigned")
        while value >= 0x80:
            append((value & 0x7F) | 0x80)
            value >>= 7
        append(value)
    return bytes(out)


def decode_varints(data: ByteSource) -> List[int]:
    """Decode a whole varint stream (scalar reference path).

    The output list is preallocated -- one pass over the continuation
    bits counts the values, so the decode loop never grows a list.
    Raises `ValueError` when a value overflows 64 bits (`VARINT_MAX`):
    downstream `np.frombuffer` columns are uint64/int64, so a wider
    value is corruption, not data.
    """
    arr = as_byte_array(data)
    n = int(np.count_nonzero(arr < 0x80))
    values: List[int] = [0] * n
    pos = 0
    for i in range(n):
        value, pos = read_varint(data, pos)
        if value > VARINT_MAX:
            raise ValueError(
                f"varint at byte {pos} overflows 64 bits ({value})")
        values[i] = value
    if pos != len(arr):
        raise ValueError("truncated varint stream (trailing continuation "
                         "bytes)")
    return values


def decode_varints_vectorized(data: ByteSource) -> np.ndarray:
    """Decode a whole varint stream at once; returns a uint64 array.

    Continuation-bit masks find the value boundaries, every byte's
    7-bit payload is shifted by ``7 * (position within its varint)``
    and the shifted payloads fold with ``np.bitwise_or.reduceat`` --
    no Python-level loop touches the stream.  Raises `ValueError` on
    truncation or a value that overflows 64 bits (the scalar decoder's
    contract).
    """
    arr = as_byte_array(data)
    if arr.size == 0:
        return np.empty(0, dtype=np.uint64)
    ends = np.flatnonzero(arr < 0x80)
    if ends.size == 0 or ends[-1] != arr.size - 1:
        raise ValueError("truncated varint stream (trailing continuation "
                         "bytes)")
    starts = np.empty(ends.size, dtype=np.int64)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    lens = ends - starts + 1
    widest = int(lens.max())
    if widest > _MAX_VARINT_BYTES:
        raise ValueError(
            f"varint wider than {_MAX_VARINT_BYTES} bytes overflows 64 bits")
    if widest == _MAX_VARINT_BYTES:
        # A 10-byte varint only fits uint64 when its last byte is 0 or 1
        # (bits 63..69 would otherwise be set).
        if np.any(arr[ends[lens == _MAX_VARINT_BYTES]] > 1):
            raise ValueError("varint overflows 64 bits")
    # Fold byte position k of every still-active varint per round: at
    # most 10 rounds, each a gather over the varints that have a k-th
    # byte -- O(total bytes) work with no per-byte index arithmetic
    # (measurably faster than the reduceat formulation on real columns).
    payload = arr & 0x7F
    values = payload[starts].astype(np.uint64)
    active = np.flatnonzero(lens > 1)
    for k in range(1, widest):
        values[active] |= payload[starts[active] + k].astype(np.uint64) \
            << np.uint64(7 * k)
        if k + 1 < widest:
            active = active[lens[active] > k + 1]
    return values


# ---------------------------------------------------------------------------
# Scheme 1: delta within block
# ---------------------------------------------------------------------------

def encode_delta_blocks(values: Sequence[int],
                        block_size: int = DEFAULT_BLOCK_SIZE) -> bytes:
    """Encode a sorted column with per-block delta coding."""
    values = _python_ints(values)
    stream = [len(values), block_size]
    prev = 0
    for i, value in enumerate(values):
        if i % block_size == 0:
            stream.append(value)            # a block's first, in full
        elif value < prev:
            raise ValueError("delta blocks need a sorted column")
        else:
            stream.append(value - prev)
        prev = value
    return encode_varints(stream)


def decode_delta_blocks(data: ByteSource,
                        vectorized: bool = True) -> np.ndarray:
    """Decode a delta-block column; ``vectorized=False`` runs the
    scalar reference loop."""
    if not vectorized:
        return _decode_delta_blocks_scalar(data)
    stream = decode_varints_vectorized(data)
    if stream.size < 2:
        raise ValueError("delta column truncated inside the header")
    count = int(stream[0])
    block_size = int(stream[1])
    if block_size < 1:
        raise ValueError(f"invalid delta block size {block_size}")
    raw = stream[2:]
    if raw.size != count:
        raise ValueError(
            f"delta column carries {raw.size} values, header says {count}")
    if count == 0:
        return np.empty(0, dtype=np.int64)
    # `raw` holds the first value of each block in full and every other
    # value as a delta, so within a block the value at i is
    # ``cumsum(raw)[i] - (cumsum(raw)[start] - raw[start])``.  uint64
    # wraparound keeps the subtraction exact even if the global cumsum
    # overflows: the true values fit 64 bits and the arithmetic is
    # modular.
    block_starts = np.arange(0, count, block_size, dtype=np.int64)
    cumsum = np.cumsum(raw, dtype=np.uint64)
    adjust = cumsum[block_starts] - raw[block_starts]
    block_lens = np.diff(np.append(block_starts, count))
    return (cumsum - np.repeat(adjust, block_lens)).astype(np.int64)


def _decode_delta_blocks_scalar(data: ByteSource) -> np.ndarray:
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


# ---------------------------------------------------------------------------
# Scheme 2: run-length triples
# ---------------------------------------------------------------------------

def runs_of(values: Sequence[int]) -> List[Tuple[int, int, int]]:
    """Logical (value, first_row, count) triples of a sorted column."""
    triples: List[Tuple[int, int, int]] = []
    arr = np.asarray(values, dtype=np.int64)
    if len(arr) == 0:
        return triples
    distinct, starts = np.unique(arr, return_index=True)
    boundaries = np.append(starts, len(arr))
    for i, value in enumerate(distinct):
        first = int(boundaries[i])
        count = int(boundaries[i + 1] - boundaries[i])
        triples.append((int(value), first, count))
    return triples


def encode_rle(values: Sequence[int]) -> bytes:
    """Encode a sorted column as (value_delta, count) pairs."""
    out = bytearray()
    triples = runs_of(values)
    write_varint(out, len(values))
    write_varint(out, len(triples))
    prev_value = 0
    for value, _first, count in triples:
        if value < prev_value:
            raise ValueError("RLE needs a sorted column")
        write_varint(out, value - prev_value)
        write_varint(out, count)
        prev_value = value
    return bytes(out)


def decode_rle(data: ByteSource, vectorized: bool = True) -> np.ndarray:
    """Decode an RLE column; ``vectorized=False`` runs the scalar
    reference loop."""
    if not vectorized:
        return _decode_rle_scalar(data)
    stream = decode_varints_vectorized(data)
    if stream.size < 2:
        raise ValueError("RLE column truncated inside the header")
    count = int(stream[0])
    n_runs = int(stream[1])
    pairs = stream[2:]
    if pairs.size != 2 * n_runs:
        raise ValueError(
            f"RLE column carries {pairs.size} ints, header says "
            f"{n_runs} (delta, count) pairs")
    run_values = np.cumsum(pairs[0::2], dtype=np.uint64).astype(np.int64)
    run_lens = pairs[1::2].astype(np.int64)
    values = np.repeat(run_values, run_lens)
    if values.size != count:
        raise ValueError(
            f"RLE runs expand to {values.size} values, header says {count}")
    return values


def _decode_rle_scalar(data: ByteSource) -> np.ndarray:
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


# ---------------------------------------------------------------------------
# Scheme 3: plain varint stream
# ---------------------------------------------------------------------------
#
# The degenerate member of the candidate set: no modelling at all,
# just LEB128 bytes.  It exists so the selector has an honest
# floor -- a column whose deltas are *larger* than its values (it
# happens at level 1, where one sequence per subtree makes the column
# nearly uniform-random) should not be forced through delta coding.

def encode_varint_column(values: Sequence[int]) -> bytes:
    """Encode a column as ``varint(count) | varint(value)...``."""
    return encode_varints([len(values)] + _python_ints(values))


def decode_varint_column(data: ByteSource,
                         vectorized: bool = True) -> np.ndarray:
    """Decode a plain varint column; ``vectorized=False`` runs the
    scalar reference loop."""
    if not vectorized:
        return _decode_varint_column_scalar(data)
    stream = decode_varints_vectorized(data)
    if stream.size < 1:
        raise ValueError("varint column truncated inside the header")
    count = int(stream[0])
    values = stream[1:]
    if values.size != count:
        raise ValueError(
            f"varint column carries {values.size} values, header says "
            f"{count}")
    return values.astype(np.int64)


def _decode_varint_column_scalar(data: ByteSource) -> np.ndarray:
    pos = 0
    count, pos = read_varint(data, pos)
    values = np.empty(count, dtype=np.int64)
    for i in range(count):
        value, pos = read_varint(data, pos)
        values[i] = np.uint64(value).astype(np.int64)
    return values


# ---------------------------------------------------------------------------
# Scheme 4: frame-of-reference + fixed bit-width packing
# ---------------------------------------------------------------------------
#
# Layout (all integers little-endian, bit stream MSB-first)::
#
#     u32 count | u32 block_size
#     u64 bases[n_blocks]        per-block frame-of-reference minimum
#     u8  widths[n_blocks]       bits per packed value (0..64)
#     per block: ceil(n * width / 8) packed bytes, byte-aligned
#
# A block of identical values has width 0 and **zero** payload bytes --
# the single-value / constant-run case costs 9 bytes per block, total.
# Unlike the varint family, every region is fixed-width given the
# header, so the vectorized decoder is pure numpy shift/mask arithmetic
# over an 8-byte gather window per value -- no per-byte boundary scan
# at all (the Lemire & Boytsov bit-packing discipline).

_FOR_HEADER_BYTES = 8


def _for_block_layout(count: int, block_size: int
                      ) -> Tuple[int, np.ndarray]:
    """(n_blocks, per-block value counts) for a FOR column."""
    if block_size < 1:
        raise ValueError(f"invalid FOR block size {block_size}")
    n_blocks = (count + block_size - 1) // block_size
    block_n = np.full(n_blocks, block_size, dtype=np.int64)
    if n_blocks:
        block_n[-1] = count - (n_blocks - 1) * block_size
    return n_blocks, block_n


def encode_for(values: Sequence[int],
               block_size: int = DEFAULT_BLOCK_SIZE) -> bytes:
    """Encode a column with per-block frame-of-reference bit packing."""
    if block_size < 1:
        raise ValueError(f"invalid FOR block size {block_size}")
    count = len(values)
    arr = np.asarray(values, dtype=np.uint64)
    out = bytearray()
    out.extend(int(count).to_bytes(4, "little"))
    out.extend(int(block_size).to_bytes(4, "little"))
    n_blocks, _block_n = _for_block_layout(count, block_size)
    bases = np.empty(n_blocks, dtype=np.uint64)
    widths = bytearray(n_blocks)
    packed: List[bytes] = []
    for b in range(n_blocks):
        block = arr[b * block_size: (b + 1) * block_size]
        base = block.min()
        bases[b] = base
        deltas = block - base           # uint64, exact: base is the min
        top = int(deltas.max())
        width = top.bit_length()
        widths[b] = width
        if width == 0:
            packed.append(b"")
            continue
        # MSB-first bit matrix -> np.packbits; the stream is byte-
        # aligned per block so the decoder's offsets stay arithmetic.
        shifts = np.arange(width - 1, -1, -1, dtype=np.uint64)
        bits = ((deltas[:, None] >> shifts[None, :])
                & np.uint64(1)).astype(np.uint8)
        packed.append(np.packbits(bits.ravel()).tobytes())
    out.extend(bases.tobytes())
    out.extend(widths)
    for blob in packed:
        out.extend(blob)
    return bytes(out)


def decode_for(data: ByteSource, vectorized: bool = True) -> np.ndarray:
    """Decode a FOR column; ``vectorized=False`` runs the scalar
    reference loop (bit-at-a-time, the differential oracle)."""
    if not vectorized:
        return _decode_for_scalar(data)
    arr = as_byte_array(data)
    if arr.size < _FOR_HEADER_BYTES:
        raise ValueError("FOR column truncated inside the header")
    header = arr[:8].view(np.uint32)
    count = int(header[0])
    block_size = int(header[1])
    n_blocks, block_n = _for_block_layout(count, block_size)
    tables_end = _FOR_HEADER_BYTES + 9 * n_blocks
    if arr.size < tables_end:
        raise ValueError("FOR column truncated inside the block tables")
    bases = arr[_FOR_HEADER_BYTES: _FOR_HEADER_BYTES + 8 * n_blocks] \
        .view(np.uint64)
    widths = arr[_FOR_HEADER_BYTES + 8 * n_blocks: tables_end] \
        .astype(np.int64)
    if n_blocks and int(widths.max()) > 64:
        raise ValueError("FOR block width exceeds 64 bits")
    block_bytes = (block_n * widths + 7) >> 3
    payload_len = int(block_bytes.sum())
    if arr.size != tables_end + payload_len:
        raise ValueError(
            f"FOR column carries {arr.size - tables_end} payload bytes, "
            f"header says {payload_len}")
    if count == 0:
        return np.empty(0, dtype=np.int64)
    bases_rep = np.repeat(bases, block_n)
    max_width = int(widths.max())
    if max_width == 0:
        return bases_rep.astype(np.int64)
    # Per-value coordinates, all derived arithmetically from the header.
    block_starts = np.concatenate(
        ([0], np.cumsum(block_bytes)))[:-1]      # bytes, payload-relative
    wv = np.repeat(widths, block_n)              # width per value
    pos_in_block = np.arange(count, dtype=np.int64) \
        - np.repeat(np.arange(n_blocks, dtype=np.int64) * block_size,
                    block_n)
    sv = np.repeat(block_starts << 3, block_n) \
        + pos_in_block * wv                      # start bit per value
    # Gather a big-endian window at each value's start byte; the value
    # is then a shift/mask away.  Zero padding lets tail windows gather
    # safely.  Three tiers by the column's widest block: a 4-byte
    # uint32 window covers bit_off + width <= 32 (the common dewey
    # range), an 8-byte uint64 window covers width <= 57, and only
    # wider values pay for the ninth "tail" byte.
    payload = np.concatenate((arr[tables_end:],
                              np.zeros(16, dtype=np.uint8)))
    byte_start = sv >> 3
    if max_width <= 25:
        b0 = payload[byte_start].astype(np.uint32)
        b1 = payload[byte_start + 1].astype(np.uint32)
        b2 = payload[byte_start + 2].astype(np.uint32)
        b3 = payload[byte_start + 3].astype(np.uint32)
        take4 = ((b0 << np.uint32(24)) | (b1 << np.uint32(16))
                 | (b2 << np.uint32(8)) | b3)
        bit_off = (sv & 7).astype(np.uint32)
        w_safe = np.maximum(wv, 1).astype(np.uint32)
        deltas = ((take4 << bit_off)
                  >> (np.uint32(32) - w_safe)).astype(np.uint64)
    else:
        from numpy.lib.stride_tricks import sliding_window_view
        windows = sliding_window_view(payload, 8)
        take8 = windows[byte_start].view(">u8")[:, 0].astype(np.uint64)
        bit_off = (sv & 7).astype(np.uint64)
        w_safe = np.maximum(wv, 1).astype(np.uint64)
        deltas = (take8 << bit_off) >> (np.uint64(64) - w_safe)
        if max_width > 57:
            # A value wider than (64 - bit offset) spills into a ninth
            # byte; its low `missing` bits come from that byte's top
            # bits (the spilled region of `deltas` is zero-filled by
            # the left shift, so OR-ing is exact).
            missing = np.maximum(bit_off.astype(np.int64) + wv - 64, 0) \
                .astype(np.uint64)
            tail = payload[byte_start + 8].astype(np.uint64)
            deltas |= tail >> (np.uint64(8) - missing)
    if int(widths.min()) == 0:
        deltas = np.where(wv == 0, np.uint64(0), deltas)
    return (bases_rep + deltas).astype(np.int64)


def _decode_for_scalar(data: ByteSource) -> np.ndarray:
    """Bit-at-a-time FOR reference decoder."""
    arr = as_byte_array(data)
    if len(arr) < _FOR_HEADER_BYTES:
        raise ValueError("FOR column truncated inside the header")
    count = int.from_bytes(bytes(arr[0:4]), "little")
    block_size = int.from_bytes(bytes(arr[4:8]), "little")
    n_blocks, block_n = _for_block_layout(count, block_size)
    tables_end = _FOR_HEADER_BYTES + 9 * n_blocks
    if len(arr) < tables_end:
        raise ValueError("FOR column truncated inside the block tables")
    values = np.empty(count, dtype=np.int64)
    pos = tables_end          # payload cursor, in bytes
    out = 0
    for b in range(n_blocks):
        base = int.from_bytes(
            bytes(arr[_FOR_HEADER_BYTES + 8 * b:
                      _FOR_HEADER_BYTES + 8 * b + 8]), "little")
        width = int(arr[_FOR_HEADER_BYTES + 8 * n_blocks + b])
        if width > 64:
            raise ValueError("FOR block width exceeds 64 bits")
        n = int(block_n[b])
        nbytes = (n * width + 7) >> 3
        if pos + nbytes > len(arr):
            raise ValueError("FOR payload runs off the end")
        for i in range(n):
            delta = 0
            for j in range(width):
                bit_index = i * width + j
                byte = int(arr[pos + (bit_index >> 3)])
                bit = (byte >> (7 - (bit_index & 7))) & 1
                delta = (delta << 1) | bit
            values[out] = np.uint64((base + delta)
                                    & VARINT_MAX).astype(np.int64)
            out += 1
        pos += nbytes
    if pos != len(arr):
        raise ValueError(
            f"FOR column carries {len(arr) - tables_end} payload bytes, "
            "more than its blocks describe")
    return values


# ---------------------------------------------------------------------------
# Scheme selection
# ---------------------------------------------------------------------------

_ENCODERS = {
    SCHEME_RLE: lambda values, block_size: encode_rle(values),
    SCHEME_DELTA: encode_delta_blocks,
    SCHEME_VARINT: lambda values, block_size: encode_varint_column(values),
    SCHEME_FOR: encode_for,
}

# A value below _VARINT_LIMITS[k], and not below the limit before it,
# takes k + 1 varint bytes.
_VARINT_LIMITS = np.array([1 << (7 * k) for k in range(1, 9)],
                          dtype=np.int64)


def _varint_bytes(arr: np.ndarray) -> int:
    """Bytes `arr` takes written as varints."""
    return arr.size + int(np.searchsorted(_VARINT_LIMITS, arr,
                                          side="right").sum())


def _for_bytes(arr: np.ndarray, block_size: int) -> int:
    """Bytes `encode_for` takes for `arr` (a bit over above 2**53)."""
    n_blocks, block_n = _for_block_layout(arr.size, block_size)
    starts = np.arange(n_blocks) * block_size
    spread = (np.maximum.reduceat(arr, starts)
              - np.minimum.reduceat(arr, starts))
    widths = np.frexp(spread.astype(np.float64))[1]     # bit lengths
    return (_FOR_HEADER_BYTES + 9 * n_blocks
            + int(((block_n * widths + 7) >> 3).sum()))


# FOR's frame is 17 bytes before the first value; below this many
# values it cannot win and its size is not worth computing.
_FOR_MIN_VALUES = 32


def choose_codec(values: Sequence[int],
                 codecs: Sequence[str] = CODECS,
                 block_size: int = DEFAULT_BLOCK_SIZE
                 ) -> Tuple[str, bytes]:
    """Pick a column's codec from its statistics and encode it once.

    A few numpy passes give the column's order, run count, value range
    and the varint bytes of its values and steps; a decision list over
    them ranks the codecs and the best-ranked member of ``codecs``
    encodes the column:

    * at most `RLE_DISTINCT_RATIO` of the values start a run: run-length
      triples, else delta blocks -- the paper's rule (section III-D),
      and with ``codecs=PAPER_CODECS`` the whole of it;
    * a delta column competes on size with plain varints (which win
      when the steps are no shorter than the values: no block header)
      and, from `_FOR_MIN_VALUES` values up, with FOR (which wins on
      dense columns: a block's range packs in under a byte a value);
      the three sizes are read off the column, nothing is encoded;
    * when every value fits one byte and exactly that ratio start a
      run, rle and varint tie but for rle's longer header;
    * an unsorted column leaves only FOR and varint, by size (rle and
      delta demand sorted input).

    Raises `ValueError` when ``codecs`` names an unknown scheme or none
    that can encode the column.  Returns ``(scheme, payload)``.
    """
    for scheme in codecs:
        if scheme not in _ENCODERS:
            raise ValueError(f"unknown compression scheme {scheme!r}")
    arr = np.asarray(values)
    n = arr.size
    ranked = list(CODECS)
    if (arr[1:] < arr[:-1]).any():
        sizes = {SCHEME_VARINT: varint_size(n) + _varint_bytes(arr),
                 SCHEME_FOR: _for_bytes(arr, block_size)}
        ranked = sorted(sizes, key=sizes.get)
    elif n:
        steps = arr[1:] - arr[:-1]
        runs = int(np.count_nonzero(steps)) + 1
        if runs > RLE_DISTINCT_RATIO * n:
            # Sizes less what all three spend alike on the count and
            # the first value.  (Delta blocks past the first restate
            # their first value too; that is not worth a pass.)
            sizes = {
                SCHEME_DELTA: varint_size(block_size)
                + _varint_bytes(steps),
                SCHEME_VARINT: _varint_bytes(arr[1:]),
            }
            if n >= _FOR_MIN_VALUES:
                sizes[SCHEME_FOR] = _for_bytes(arr, block_size) \
                    - varint_size(n) - varint_size(int(arr[0]))
            ranked = sorted(sizes, key=sizes.get) \
                + [s for s in CODECS if s not in sizes]
        elif runs == RLE_DISTINCT_RATIO * n and arr[-1] < 0x80:
            ranked.insert(0, SCHEME_VARINT)
    scheme = next((s for s in ranked if s in codecs), None)
    if scheme is None:
        raise ValueError(f"no candidate codec in {tuple(codecs)!r} can "
                         "encode this column (rle and delta need it sorted)")
    return scheme, _ENCODERS[scheme](values, block_size)


# Below this payload size the numpy batch decode's fixed setup cost
# exceeds the whole scalar loop (crossover measured around 150 varints),
# so `decompress_column(vectorized=True)` is adaptive: tiny columns take
# the scalar loop, everything else the vectorized decoders.  The decoder
# entry points themselves stay pure so the two paths remain
# differentially testable on any input size.
VECTORIZED_MIN_BYTES = 256

_DECODERS = {
    SCHEME_RLE: decode_rle,
    SCHEME_DELTA: decode_delta_blocks,
    SCHEME_VARINT: decode_varint_column,
    SCHEME_FOR: decode_for,
}


def decompress_column(scheme: str, data: ByteSource,
                      vectorized: bool = True) -> np.ndarray:
    vectorized = vectorized and len(data) >= VECTORIZED_MIN_BYTES
    try:
        decoder = _DECODERS[scheme]
    except KeyError:
        raise ValueError(f"unknown compression scheme {scheme!r}")
    return decoder(data, vectorized=vectorized)


def uncompressed_size(values: Sequence[int], width_bytes: int = 4) -> int:
    """Size of the raw column with fixed-width integers (ablation base)."""
    return len(values) * width_bytes
