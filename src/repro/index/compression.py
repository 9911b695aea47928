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

Encoding is in bulk: `encode_columns` applies the decision list to a
batch of columns at once (the container writer's: a batch of terms'
levels) and varint-encodes them in one numpy pass; `choose_codec` and
the per-codec encoders are that path on one column.  The scalar
per-column encoders it replaced are the tests' byte-for-byte reference
(``tests/reference_codecs.py``).

Each codec has one decoder, and it is numpy throughout: continuation-bit
masks locate varint boundaries, the 7-bit payloads fold a byte position
at a time, and the delta/RLE reconstructions are ``np.cumsum`` over the
decoded stream.  `decompress_column` hands a column out as its runs
(`runs_of`): an RLE payload decodes straight to them, the other codecs'
values are split into runs in one ``diff`` pass.  Every decoder checks a
column's header against its body -- the value count, the runs' total,
the payload length -- and raises `ValueError` when they disagree, so a
hostile column is refused, never read short, long or from
uninitialized memory; runs that do not strictly increase are refused
too.  The scalar loops the decoders replaced are the
tests' differential reference (``tests/reference_codecs.py``).

Every decoder accepts ``bytes``, ``memoryview`` or a ``uint8`` ndarray,
so the mmap path can hand columns straight off the file mapping without
an intermediate copy.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

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


def _varint_sizes(arr: np.ndarray) -> np.ndarray:
    """Bytes each value of `arr` (int64 or uint64) takes as a varint;
    a negative int64 counts as its two's complement, 10 bytes.  One
    comparison pass per 7 bits the largest value needs."""
    arr = arr.view(np.uint64)
    sizes = np.ones(len(arr), dtype=np.int64)
    top = int(arr.max()) if len(arr) else 0
    for bits in range(7, top.bit_length(), 7):
        sizes += arr >= np.uint64(1 << bits)
    return sizes


def _as_ints(values: Sequence[int]) -> np.ndarray:
    """`values` as an int64 or uint64 array (a list of ints past int64
    as uint64); `ValueError` unless they are integers in ``[0,
    VARINT_MAX]`` or fit int64."""
    arr = np.asarray(values)
    if arr.dtype.kind in "iu" or not arr.size:
        return arr.astype(np.uint64 if arr.dtype.kind == "u" else np.int64,
                          copy=False)
    if all(isinstance(v, int) and 0 <= v <= VARINT_MAX for v in values):
        return np.array(values, dtype=np.uint64)
    raise ValueError(f"varints hold integers in [0, {VARINT_MAX}]")


def _varint_stream(arr: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """`arr` (int64 or uint64) written as LEB128 varints end to end:
    the uint8 array and where each value's bytes end.  One numpy round
    per byte position, over the values that reach it."""
    if arr.dtype.kind == "i" and arr.size and int(arr.min()) < 0:
        raise ValueError("varints are unsigned")
    arr = arr.view(np.uint64)
    sizes = _varint_sizes(arr).astype(np.uint8)
    ends = np.cumsum(sizes, dtype=np.int64)
    out = np.empty(int(ends[-1]) if arr.size else 0, dtype=np.uint8)
    at = ends - sizes
    out[at] = (arr & np.uint64(0x7F)).astype(np.uint8) | ((sizes > 1) << 7)
    live = np.flatnonzero(sizes > 1)
    for k in range(1, int(sizes.max()) if arr.size else 0):
        more = (sizes[live] > k + 1).astype(np.uint8) << 7
        out[at[live] + k] = ((arr[live] >> np.uint64(7 * k))
                             & np.uint64(0x7F)).astype(np.uint8) | more
        live = live[sizes[live] > k + 1]
    return out, ends


def encode_varints(values: Sequence[int]) -> bytes:
    """LEB128 varints of `values`, end to end.  Raises `ValueError` on
    a value `decode_varints` would refuse: negative or past
    `VARINT_MAX`."""
    return _varint_stream(_as_ints(values))[0].tobytes()


def decode_varints(data: ByteSource) -> np.ndarray:
    """Decode a whole varint stream at once; returns a uint64 array.

    Continuation-bit masks find the value boundaries, every byte's
    7-bit payload is shifted by ``7 * (position within its varint)``
    and the shifted payloads fold with ``np.bitwise_or.reduceat`` --
    no Python-level loop touches the stream.  Raises `ValueError` on
    truncation or a value that overflows 64 bits (`VARINT_MAX`): decoded
    columns are uint64/int64, so a wider value is corruption, not data.
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
    """Encode a sorted column with per-block delta coding: ``count,
    block_size``, then each block's first value and every other's step
    from its predecessor."""
    return choose_codec(values, (SCHEME_DELTA,), block_size)[1]


def decode_delta_blocks(data: ByteSource) -> np.ndarray:
    """Decode a delta-block column."""
    stream = decode_varints(data)
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


# ---------------------------------------------------------------------------
# Scheme 2: run-length triples
# ---------------------------------------------------------------------------

def runs_of(values: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
    """``(distinct, run_starts)`` of a column: each run of equal
    neighbours once, and where each begins, closed by the length --
    ``values[run_starts[i]:run_starts[i + 1]]`` all equal ``distinct[i]``
    (section III-D's (value, first-row, count) triples as two arrays).
    One ``diff`` pass; on a sorted column the runs are its distinct
    values."""
    arr = np.asarray(values, dtype=np.int64)
    if not len(arr):
        return arr, np.zeros(1, dtype=np.int64)
    run_starts = np.concatenate(
        ([0], np.flatnonzero(arr[1:] != arr[:-1]) + 1, [len(arr)]))
    return arr[run_starts[:-1]], run_starts


def run_values(distinct: np.ndarray, run_starts: np.ndarray) -> np.ndarray:
    """The column the runs `runs_of` found describe, one value a row."""
    return np.repeat(distinct, np.diff(run_starts))


def encode_rle(values: Sequence[int]) -> bytes:
    """Encode a sorted column as ``count, n_runs`` and a (value_delta,
    count) pair per run."""
    return choose_codec(values, (SCHEME_RLE,))[1]


def decode_rle(data: ByteSource) -> Tuple[np.ndarray, np.ndarray]:
    """Decode an RLE column to its runs, ``(distinct, run_starts)`` as
    `runs_of` gives them -- the stored triples, never expanded.  A run
    of no value or one repeating (or not above) its predecessor's
    value is refused: it would alias a neighbour in a search over
    ``distinct``."""
    stream = decode_varints(data)
    if stream.size < 2:
        raise ValueError("RLE column truncated inside the header")
    count = int(stream[0])
    n_runs = int(stream[1])
    pairs = stream[2:]
    if pairs.size != 2 * n_runs:
        raise ValueError(
            f"RLE column carries {pairs.size} ints, header says "
            f"{n_runs} (delta, count) pairs")
    run_lens = pairs[1::2]
    # The runs' total must equal the header's count, summed exactly: in
    # uint64 when n_runs runs of at most `count` cannot wrap it, else
    # in Python ints.
    in_uint64 = count * n_runs < 1 << 64 \
        and (n_runs == 0 or int(run_lens.max()) <= count)
    total = int(run_lens.sum()) if in_uint64 else sum(run_lens.tolist())
    if total != count:
        raise ValueError(
            f"RLE runs cover {total} values, header says {count}")
    if n_runs and int(run_lens.min()) == 0:
        raise ValueError("RLE column holds a run of no values")
    run_starts = np.zeros(n_runs + 1, dtype=np.int64)
    np.cumsum(run_lens, out=run_starts[1:])
    distinct = np.cumsum(pairs[0::2], dtype=np.uint64).astype(np.int64)
    _check_increasing(SCHEME_RLE, distinct)
    return distinct, run_starts


def _check_increasing(scheme: str, distinct: np.ndarray) -> None:
    """Refuse runs whose values do not strictly increase: a column is
    sorted (Property 3.1), and searching unsorted or repeated run values
    would read a neighbour's run."""
    if np.any(distinct[1:] <= distinct[:-1]):
        raise ValueError(f"{scheme} column is not sorted into distinct "
                         "runs")


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
    return choose_codec(values, (SCHEME_VARINT,))[1]


def decode_varint_column(data: ByteSource) -> np.ndarray:
    """Decode a plain varint column."""
    stream = decode_varints(data)
    if stream.size < 1:
        raise ValueError("varint column truncated inside the header")
    count = int(stream[0])
    values = stream[1:]
    if values.size != count:
        raise ValueError(
            f"varint column carries {values.size} values, header says "
            f"{count}")
    return values.astype(np.int64)


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
# header, so the decoder is pure numpy shift/mask arithmetic
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


def decode_for(data: ByteSource) -> np.ndarray:
    """Decode a FOR column."""
    arr = as_byte_array(data)
    if arr.size < _FOR_HEADER_BYTES:
        raise ValueError("FOR column truncated inside the header")
    header = arr[:8].view(np.uint32)
    count = int(header[0])
    block_size = int(header[1])
    if block_size < 1:
        raise ValueError(f"invalid FOR block size {block_size}")
    # Nine table bytes a block: the tables must fit before anything is
    # allocated per block.
    tables_end = _FOR_HEADER_BYTES + 9 * -(-count // block_size)
    if arr.size < tables_end:
        raise ValueError("FOR column truncated inside the block tables")
    n_blocks, block_n = _for_block_layout(count, block_size)
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


# ---------------------------------------------------------------------------
# Scheme selection and encoding, a batch of columns at a time
# ---------------------------------------------------------------------------
#
# The columns lie end to end in one array, ``values[bounds[c]:bounds[c +
# 1]]`` being column c.  Every statistic the decision list reads is a
# segment reduction over the batch, and every chosen varint codec's
# integers are laid into one stream by index arithmetic and encoded in
# one `_varint_stream` pass; a FOR column goes through `encode_for`.

_RLE, _DELTA, _FOR, _VARINT = range(4)          # positions in `CODECS`
_CODEC_IDS = np.array([SCHEME_IDS[s] for s in CODECS], dtype=np.uint8)
#: Integers ahead of a column's body: rle's (count, runs), delta's
#: (count, block size), none for FOR, varint's count.
_HEADER_INTS = np.array([2, 2, 0, 1])
# FOR's frame is 17 bytes before the first value; below this many
# values of a sorted column it cannot win and is not sized.
_FOR_MIN_VALUES = 32
#: Ranks (lower wins): a codec sized for the column ranks by ``4 * size
#: + tie order``, the others follow in `CODECS` order, and one that
#: cannot encode the column is never picked.
_UNSIZED, _BARRED = 1 << 60, 1 << 62


class _Columns:
    """A batch of columns, and what the decision list and the stream
    share: each column's length ``n`` and ``runs``, each value's
    column, whether it has a predecessor there (``inner``) and whether
    it starts a run."""

    def __init__(self, values: np.ndarray, bounds: np.ndarray):
        self.values = values
        self.bounds = bounds = np.asarray(bounds, dtype=np.int64)
        self.n = np.diff(bounds)
        self.col = np.repeat(np.arange(len(self.n), dtype=np.int32), self.n)
        self.filled = self.n > 0
        self.heads = bounds[:-1][self.filled]
        self.inner = np.ones(len(values), dtype=bool)
        self.inner[self.heads] = False
        self.run_start = ~self.inner
        self.run_start[1:] |= values[1:] != values[:-1]
        self.runs = np.bincount(self.col[self.run_start],
                                minlength=len(self.n))

    def total(self, per_value: np.ndarray) -> np.ndarray:
        """Each column's sum of `per_value`."""
        out = np.zeros(len(self.n), dtype=np.int64)
        if len(self.heads):
            out[self.filled] = np.add.reduceat(per_value, self.heads)
        return out

    def for_sizes(self, block_size: int) -> np.ndarray:
        """Bytes `encode_for` takes for each column."""
        n_blocks = -(-self.n // block_size)
        block_col = np.repeat(np.arange(len(self.n)), n_blocks)
        starts = self.bounds[block_col] + block_size * (
            np.arange(len(block_col)) - (np.cumsum(n_blocks)
                                         - n_blocks)[block_col])
        packed = np.zeros(len(starts), dtype=np.int64)
        if len(starts):
            spread = (np.maximum.reduceat(self.values, starts)
                      .astype(np.uint64) - np.minimum.reduceat(
                          self.values, starts).astype(np.uint64))
            packed = (np.minimum(block_size, self.bounds[block_col + 1]
                                 - starts) * _bit_lengths(spread) + 7) >> 3
        return _FOR_HEADER_BYTES + 9 * n_blocks + np.bincount(
            block_col, packed, minlength=len(self.n)).astype(np.int64)


def _bit_lengths(arr: np.ndarray) -> np.ndarray:
    """``int.bit_length`` of each uint64 value, exactly (the float
    exponent can round up past 2**53)."""
    widths = np.minimum(np.frexp(arr.astype(np.float64))[1], 64) \
        .astype(np.int64)
    top = np.uint64(1) << np.maximum(widths - 1, 0).astype(np.uint64)
    return widths - ((widths > 0) & (arr < top))


def _choose(cols: _Columns, codecs: Sequence[str],
            block_size: int) -> np.ndarray:
    """`choose_codec`'s decision list for every column at once: each
    column's position in `CODECS`."""
    values, n, inner, bounds = cols.values, cols.n, cols.inner, cols.bounds
    filled = cols.filled
    falls = np.zeros(len(values), dtype=bool)
    falls[1:] = values[1:] < values[:-1]
    unsorted = np.bincount(cols.col[falls & inner], minlength=len(n)) > 0
    steps = np.zeros_like(values)
    steps[1:] = values[1:] - values[:-1]
    steps[falls] = 0                # an unsorted column's: never sized
    del falls
    steps = _varint_sizes(steps)
    steps[~inner] = 0
    step_bytes = cols.total(steps)
    del steps
    value_bytes = _varint_sizes(values)
    first_bytes = np.zeros(len(n), dtype=np.int64)
    first_bytes[filled] = value_bytes[cols.heads]
    value_bytes = cols.total(value_bytes)
    n_bytes = _varint_sizes(n)
    for_bytes = cols.for_sizes(block_size)
    last_small = np.zeros(len(n), dtype=bool)
    last_small[filled] = values[bounds[1:][filled] - 1] < 0x80

    rank = np.tile(_UNSIZED + np.arange(len(CODECS)), (len(n), 1))
    # Many runs: delta, varint and (from _FOR_MIN_VALUES up) FOR by
    # size, less what all three spend alike on the count and the first
    # value; rle after them.
    many = ~unsorted & (2 * cols.runs > n)
    rank[many, _DELTA] = 4 * (varint_size(block_size) + step_bytes[many])
    rank[many, _VARINT] = 4 * (value_bytes - first_bytes)[many] + 1
    big = many & (n >= _FOR_MIN_VALUES)
    rank[big, _FOR] = 4 * (for_bytes - n_bytes - first_bytes)[big] + 2
    # Exactly half the values start a run and all fit a byte: rle and
    # varint tie but for rle's longer header.
    rank[~unsorted & (2 * cols.runs == n) & last_small, _VARINT] = -1
    # Unsorted: varint or FOR, by size; rle and delta cannot encode it.
    rank[unsorted, _VARINT] = 4 * (n_bytes + value_bytes)[unsorted]
    rank[unsorted, _FOR] = 4 * for_bytes[unsorted] + 1
    rank[unsorted, _RLE] = rank[unsorted, _DELTA] = _BARRED
    rank[:, [s not in codecs for s in CODECS]] = _BARRED
    pick = rank.argmin(axis=1)
    if (rank[np.arange(len(n)), pick] == _BARRED).any():
        raise ValueError(f"no candidate codec in {tuple(codecs)!r} can "
                         "encode this column (rle and delta need it sorted)")
    return pick


def _stream(cols: _Columns, pick: np.ndarray, block_size: int
            ) -> Tuple[np.ndarray, np.ndarray]:
    """The integers of every column's varint codec end to end, and where
    each column's start (closed by the total; a FOR column has none)."""
    values, n, bounds, col = cols.values, cols.n, cols.bounds, cols.col
    header = _HEADER_INTS[pick]
    rle = pick == _RLE
    plain = (pick == _DELTA) | (pick == _VARINT)
    off = np.concatenate(([0], np.cumsum(header + np.where(
        rle, 2 * cols.runs, np.where(plain, n, 0)))))
    stream = np.empty(int(off[-1]), dtype=values.dtype)
    stream[off[:-1][header > 0]] = n[header > 0]
    two = header == 2
    stream[off[:-1][two] + 1] = np.where(rle[two], cols.runs[two],
                                         block_size)
    # delta and varint: a value a value, delta's as the step from its
    # predecessor but at a block's first value
    at = np.flatnonzero(plain[col])
    c = col[at]
    pos = at - bounds[c]
    body = values[at]
    step = (pick[c] == _DELTA) & (pos % block_size != 0)
    body[step] -= values[at[step] - 1]
    del at, step
    pos += (off[:-1] + header)[c]
    stream[pos] = body
    del c, pos, body
    # rle: a (value delta, count) pair a run
    at = np.flatnonzero(cols.run_start & rle[col])
    c = col[at]
    opens = ~cols.inner[at]
    index = np.arange(len(at))
    index -= np.maximum.accumulate(np.where(opens, index, 0))
    delta = values[at]
    delta[~opens] -= values[at[~opens] - 1]
    same = np.append(~opens[1:], False)
    pos = off[c] + 2 + 2 * index
    stream[pos] = delta
    stream[pos + 1] = np.where(same, np.append(at[1:], 0),
                               bounds[c + 1]) - at
    return stream, off


def encode_columns(values: np.ndarray, bounds: np.ndarray,
                   codecs: Sequence[str] = CODECS,
                   block_size: int = DEFAULT_BLOCK_SIZE
                   ) -> Tuple[np.ndarray, List[bytes]]:
    """Pick each column's codec and encode it, for a batch of columns
    laid end to end (``values[bounds[c]:bounds[c + 1]]`` is column c).
    Returns each column's scheme id (`SCHEME_IDS`) and payload: what
    `choose_codec` gives for the column alone, byte for byte."""
    for scheme in codecs:
        if scheme not in SCHEME_IDS:
            raise ValueError(f"unknown compression scheme {scheme!r}")
    cols = _Columns(_as_ints(values), bounds)
    if len(codecs) == 1:        # no choice to make, only a sorted check
        pick = np.full(len(cols.n), CODECS.index(codecs[0]))
        if codecs[0] in (SCHEME_RLE, SCHEME_DELTA) and (cols.inner[1:] & (
                cols.values[1:] < cols.values[:-1])).any():
            raise ValueError(f"{codecs[0]} needs a sorted column")
    else:
        pick = _choose(cols, codecs, block_size)
    stream, off = _stream(cols, pick, block_size)
    data, ends = _varint_stream(stream)
    del stream
    ends = np.concatenate(([0], ends))[off].tolist()
    blob = data.tobytes()
    del data
    payloads = [blob[lo:hi] for lo, hi in zip(ends, ends[1:])]
    for c in np.flatnonzero(pick == _FOR).tolist():
        payloads[c] = encode_for(cols.values[cols.bounds[c]:
                                             cols.bounds[c + 1]], block_size)
    return _CODEC_IDS[pick], payloads


def choose_codec(values: Sequence[int],
                 codecs: Sequence[str] = CODECS,
                 block_size: int = DEFAULT_BLOCK_SIZE
                 ) -> Tuple[str, bytes]:
    """Pick a column's codec from its statistics and encode it once.

    The column's order, run count, FOR block ranges and the varint
    bytes of its values and steps feed a decision list that ranks the
    codecs; the best-ranked member of ``codecs`` encodes the column:

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

    It is `encode_columns` on one column.  Raises `ValueError` when
    ``codecs`` names an unknown scheme or none that can encode the
    column.  Returns ``(scheme, payload)``.
    """
    arr = _as_ints(values)
    ids, payloads = encode_columns(arr, [0, len(arr)], codecs, block_size)
    return SCHEME_NAMES[int(ids[0])], payloads[0]


_DECODERS = {
    SCHEME_RLE: decode_rle,
    SCHEME_DELTA: decode_delta_blocks,
    SCHEME_VARINT: decode_varint_column,
    SCHEME_FOR: decode_for,
}


def decompress_column(scheme: str, data: ByteSource,
                      rows: Optional[int] = None
                      ) -> Tuple[np.ndarray, np.ndarray]:
    """Decode a sorted column written by `choose_codec` as ``scheme`` to
    its runs, ``(distinct, run_starts)`` as `runs_of` gives them.

    RLE payloads are the runs already; the other codecs decode their
    values and `runs_of` finds the runs.  Runs whose values do not
    strictly increase are refused (`ValueError`).  With ``rows`` (the
    count the caller knows the column holds), a header declaring
    another count is refused before the decoder runs: a body can agree
    with a hostile header, and decoding it would allocate what the
    header says.
    """
    try:
        decoder = _DECODERS[scheme]
    except KeyError:
        raise ValueError(f"unknown compression scheme {scheme!r}")
    if rows is not None:
        # FOR leads with a u32 count, the varint codecs with a varint.
        if scheme == SCHEME_FOR:
            declared = int.from_bytes(bytes(as_byte_array(data)[:4]),
                                      "little")
        else:
            declared = read_varint(as_byte_array(data), 0)[0]
        if declared != rows:
            raise ValueError(
                f"{scheme} column header says {declared} rows, "
                f"expected {rows}")
    if scheme == SCHEME_RLE:
        return decoder(data)
    distinct, run_starts = runs_of(decoder(data))
    _check_increasing(scheme, distinct)
    return distinct, run_starts


def uncompressed_size(values: Sequence[int], width_bytes: int = 4) -> int:
    """Size of the raw column with fixed-width integers (ablation base)."""
    return len(values) * width_bytes
