"""On-disk formats and size accounting (paper Table I).

Implements byte-accurate serialization for the two index families and
size *models* for the baseline structures the paper measures:

* ``join-based IL``  -- columnar JDewey lists, per-column compression
  (section III-D), plus sparse per-column indices.
* ``stack-based IL`` -- document-ordered Dewey lists with the prefix
  compression of Xu & Papakonstantinou [6] (each id stores the length of
  the prefix shared with its predecessor plus the new suffix).
* ``index-based``    -- a single B-tree whose key entries are
  ``(keyword, Dewey id)`` pairs, the BerkeleyDB layout the paper blames
  for the size blow-up.
* ``top-K join IL``  -- the columnar lists plus per-occurrence scores
  and group-by-length headers (section IV-C).
* ``RDIL``           -- the stack IL plus per-keyword B-trees over Dewey
  ids.

The columnar serializers round-trip (tests assert equality).  The
Dewey list and B-tree numbers are size models with explicit constants:
the baselines run in memory over lists derived from the columnar index
(`repro.index.inverted`), so nothing Dewey-shaped is written to disk.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from ..reliability.checksum import (ALGORITHM_IDS, ALGORITHM_NAMES,
                                    DEFAULT_ALGORITHM, checksum)
from ..reliability.errors import DatabaseCorruptError, DatabaseFormatError
from .columnar import ColumnarIndex, ColumnarPostings
from .compression import (SCHEME_IDS, SCHEME_NAMES, V4_CODECS, choose_codec,
                          compress_column, decompress_column, read_varint,
                          varint_size, write_varint)
from .inverted import InvertedIndex, PostingList
from .sparse import DEFAULT_GRANULARITY, SparseColumnIndex

_MAGIC_COLUMNAR = b"JDXC"

# B-tree cost-model constants (BerkeleyDB-flavoured).
BTREE_ENTRY_OVERHEAD = 12   # per-entry header + leaf pointer bytes
BTREE_FILL_FACTOR = 0.70    # leaf page utilization
BTREE_INTERNAL_FACTOR = 1.10  # internal pages on top of the leaf level
SCORE_BYTES = 2             # quantized per-occurrence score (top-K IL)


# ---------------------------------------------------------------------------
# Columnar (JDewey) serialization
# ---------------------------------------------------------------------------

SCORES_NONE = 0
SCORES_QUANTIZED = 1   # 2-byte fixed point, the Table I size model
SCORES_EXACT = 2       # float64, used by the persistence layer


def serialize_columnar_postings(postings: ColumnarPostings,
                                with_scores: bool = False,
                                score_mode: int = None) -> bytes:
    """Serialize one term's columnar list.

    Layout: term, n_seqs, max_len, the varint column of sequence lengths,
    then each level's compressed column.  The per-level seq ordinals are
    *not* stored: they are implied by the lengths column (a sequence of
    length >= l contributes the next value of column l, in order), which
    is exactly the storage saving of the columnar layout.

    ``score_mode`` is one of SCORES_NONE / SCORES_QUANTIZED /
    SCORES_EXACT; ``with_scores=True`` is shorthand for the quantized
    mode (the on-disk footprint Table I measures).
    """
    if score_mode is None:
        score_mode = SCORES_QUANTIZED if with_scores else SCORES_NONE
    out = bytearray()
    term_bytes = postings.term.encode("utf-8")
    write_varint(out, len(term_bytes))
    out.extend(term_bytes)
    write_varint(out, len(postings.seqs))
    write_varint(out, postings.max_len)
    out.append(score_mode)
    for length in postings.lengths:
        write_varint(out, int(length))
    for level in range(1, postings.max_len + 1):
        column = postings.column(level)
        scheme, payload = compress_column(column.values)
        out.append(0 if scheme == "rle" else 1)
        write_varint(out, len(payload))
        out.extend(payload)
    if score_mode == SCORES_QUANTIZED:
        quantized = np.asarray(postings.scores * 256.0, dtype=np.uint16)
        out.extend(quantized.tobytes())
    elif score_mode == SCORES_EXACT:
        out.extend(np.asarray(postings.scores,
                              dtype=np.float64).tobytes())
    return bytes(out)


def deserialize_columnar_postings(data: bytes, pos: int = 0
                                  ) -> Tuple[ColumnarPostings, int]:
    """Inverse of `serialize_columnar_postings`; returns (postings, next_pos).

    Scores are restored at quantized precision when present, else zero.
    """
    term_len, pos = read_varint(data, pos)
    term = data[pos: pos + term_len].decode("utf-8")
    pos += term_len
    n_seqs, pos = read_varint(data, pos)
    max_len, pos = read_varint(data, pos)
    score_mode = data[pos]
    pos += 1
    lengths: List[int] = []
    for _ in range(n_seqs):
        length, pos = read_varint(data, pos)
        lengths.append(length)
    seqs: List[List[int]] = [[] for _ in range(n_seqs)]
    for level in range(1, max_len + 1):
        scheme_byte = data[pos]
        pos += 1
        payload_len, pos = read_varint(data, pos)
        payload = data[pos: pos + payload_len]
        pos += payload_len
        values = decompress_column("rle" if scheme_byte == 0 else "delta",
                                   payload)
        cursor = 0
        for i in range(n_seqs):
            if lengths[i] >= level:
                seqs[i].append(int(values[cursor]))
                cursor += 1
    scores: List[float]
    if score_mode == SCORES_QUANTIZED:
        raw = np.frombuffer(data, dtype=np.uint16, count=n_seqs, offset=pos)
        pos += 2 * n_seqs
        scores = [float(v) / 256.0 for v in raw]
    elif score_mode == SCORES_EXACT:
        raw = np.frombuffer(data, dtype=np.float64, count=n_seqs,
                            offset=pos)
        pos += 8 * n_seqs
        scores = [float(v) for v in raw]
    elif score_mode == SCORES_NONE:
        scores = [0.0] * n_seqs
    else:
        raise ValueError(f"unknown score mode {score_mode}")
    postings = ColumnarPostings(term, [tuple(s) for s in seqs], scores)
    return postings, pos


def serialize_columnar_index(index: ColumnarIndex,
                             with_scores: bool = False,
                             score_mode: int = None) -> bytes:
    """Serialize every term of a columnar index."""
    out = bytearray(_MAGIC_COLUMNAR)
    terms = index.vocabulary
    write_varint(out, len(terms))
    for term in terms:
        out.extend(serialize_columnar_postings(index.term_postings(term),
                                               with_scores, score_mode))
    return bytes(out)


def deserialize_columnar_index(data: bytes) -> Dict[str, ColumnarPostings]:
    """Load the per-term postings written by `serialize_columnar_index`."""
    if data[:4] != _MAGIC_COLUMNAR:
        raise ValueError("not a columnar index blob")
    pos = 4
    n_terms, pos = read_varint(data, pos)
    result: Dict[str, ColumnarPostings] = {}
    for _ in range(n_terms):
        postings, pos = deserialize_columnar_postings(data, pos)
        result[postings.term] = postings
    return result


# ---------------------------------------------------------------------------
# Blocked, checksummed containers (persistence format v2)
# ---------------------------------------------------------------------------
#
# Layout: magic(4) | algorithm id(1) | varint n_terms | per-term block.
# Each block is ``varint term_len | term | varint payload_len |
# crc(4, big-endian) | payload`` where the payload is the *unchanged*
# v1 per-term serialization above.  Repeating the term in the frame is
# deliberate: a reader can name the offending keyword of a corrupt
# block without parsing the corrupt payload, and a lazy reader can
# locate a term's bytes without decompressing anything.

_MAGIC_COLUMNAR_BLOCKED = b"JDXB"

#: Everything a malformed byte stream can make the v1 parsers raise --
#: turned into the typed `DatabaseCorruptError` at this boundary so no
#: raw IndexError/ValueError/MemoryError ever reaches a caller.
_PARSE_ERRORS = (IndexError, KeyError, OverflowError, MemoryError,
                 UnicodeDecodeError, ValueError)


@dataclass(frozen=True)
class BlockRef:
    """Locator for one term's checksummed payload inside a container."""

    term: str
    offset: int        # payload start, as an offset into the container
    length: int
    crc: int


def _serialize_blocked(magic: bytes, blocks: List[Tuple[str, bytes]],
                       algorithm: str) -> bytes:
    if algorithm not in ALGORITHM_IDS:
        raise ValueError(f"unknown checksum algorithm {algorithm!r}; "
                         f"one of {sorted(ALGORITHM_IDS)}")
    out = bytearray(magic)
    out.append(ALGORITHM_IDS[algorithm])
    write_varint(out, len(blocks))
    for term, payload in blocks:
        term_bytes = term.encode("utf-8")
        write_varint(out, len(term_bytes))
        out.extend(term_bytes)
        write_varint(out, len(payload))
        out.extend(checksum(payload, algorithm).to_bytes(4, "big"))
        out.extend(payload)
    return bytes(out)


def scan_blocked_container(data: bytes, magic: bytes,
                           file: str = None
                           ) -> Tuple[str, List[BlockRef]]:
    """Walk a blocked container's framing without touching payloads.

    Returns ``(algorithm_name, refs)``.  Raises `DatabaseFormatError`
    on a wrong magic or unknown algorithm id and `DatabaseCorruptError`
    when the framing runs off the end of the buffer (truncation).
    """
    if data[:4] != magic:
        raise DatabaseFormatError(
            f"bad magic {data[:4]!r} (expected {magic!r})"
            + (f" in {file}" if file else ""))
    if len(data) < 5:
        raise DatabaseCorruptError(
            "container truncated inside the header", file=file)
    algo_id = data[4]
    if algo_id not in ALGORITHM_NAMES:
        raise DatabaseFormatError(
            f"unknown checksum algorithm id {algo_id}"
            + (f" in {file}" if file else ""))
    algorithm = ALGORITHM_NAMES[algo_id]
    refs: List[BlockRef] = []
    try:
        pos = 5
        n_terms, pos = read_varint(data, pos)
        for _ in range(n_terms):
            term_len, pos = read_varint(data, pos)
            term = data[pos: pos + term_len].decode("utf-8")
            if len(data) < pos + term_len:
                raise IndexError("term runs off the end")
            pos += term_len
            payload_len, pos = read_varint(data, pos)
            crc = int.from_bytes(data[pos: pos + 4], "big")
            pos += 4
            if len(data) < pos + payload_len:
                raise IndexError("payload runs off the end")
            refs.append(BlockRef(term, pos, payload_len, crc))
            pos += payload_len
    except _PARSE_ERRORS as exc:
        raise DatabaseCorruptError(
            f"blocked container framing corrupt: {exc}",
            file=file) from exc
    return algorithm, refs


def verify_block(data: bytes, ref: BlockRef, algorithm: str,
                 file: str = None) -> bytes:
    """Return `ref`'s payload after checking its checksum.

    Raises `DatabaseCorruptError` naming the file and keyword on
    mismatch -- the detection point for bit flips and short reads.
    """
    payload = data[ref.offset: ref.offset + ref.length]
    if len(payload) != ref.length or checksum(payload, algorithm) != ref.crc:
        raise DatabaseCorruptError(
            f"checksum mismatch for term {ref.term!r}"
            + (f" in {file}" if file else ""),
            file=file, term=ref.term)
    return payload


class PostingsView:
    """Duck-typed index over a plain ``term -> postings`` dict.

    Every container serializer walks ``index.vocabulary`` and calls
    ``term_postings``; the shard writer partitions one index into N
    posting dicts and serializes each through this view, which supplies
    exactly the two members the serializers touch.
    """

    __slots__ = ("_postings",)

    def __init__(self, postings_by_term: Dict[str, object]):
        self._postings = postings_by_term

    @property
    def vocabulary(self) -> List[str]:
        return sorted(self._postings)

    def term_postings(self, term: str):
        return self._postings[term]


def serialize_columnar_index_blocked(index: ColumnarIndex,
                                     with_scores: bool = False,
                                     score_mode: int = None,
                                     algorithm: str = None) -> bytes:
    """Format-v2 columnar container: v1 per-term payloads, checksummed."""
    algorithm = algorithm if algorithm is not None else DEFAULT_ALGORITHM
    blocks = [
        (term, serialize_columnar_postings(index.term_postings(term),
                                           with_scores, score_mode))
        for term in index.vocabulary
    ]
    return _serialize_blocked(_MAGIC_COLUMNAR_BLOCKED, blocks, algorithm)


def deserialize_columnar_index_blocked(data: bytes, verify: bool = True,
                                       file: str = None
                                       ) -> Dict[str, ColumnarPostings]:
    """Load a format-v2 columnar container, verifying every block."""
    algorithm, refs = scan_blocked_container(
        data, _MAGIC_COLUMNAR_BLOCKED, file=file)
    result: Dict[str, ColumnarPostings] = {}
    for ref in refs:
        payload = (verify_block(data, ref, algorithm, file=file) if verify
                   else data[ref.offset: ref.offset + ref.length])
        try:
            postings, _ = deserialize_columnar_postings(payload, 0)
        except _PARSE_ERRORS as exc:
            raise DatabaseCorruptError(
                f"postings for term {ref.term!r} do not parse: {exc}",
                file=file, term=ref.term) from exc
        result[postings.term] = postings
    return result


def guarded_deserialize_columnar(data: bytes, file: str = None
                                 ) -> Dict[str, ColumnarPostings]:
    """v1 `deserialize_columnar_index` with typed errors (legacy loads)."""
    try:
        if data[:4] != _MAGIC_COLUMNAR:
            raise DatabaseFormatError(
                f"not a columnar index blob"
                + (f" ({file})" if file else ""))
        return deserialize_columnar_index(data)
    except DatabaseFormatError:
        raise
    except _PARSE_ERRORS as exc:
        raise DatabaseCorruptError(
            f"columnar blob does not parse: {exc}", file=file) from exc


# ---------------------------------------------------------------------------
# Block-aligned container (persistence format v3, zero-copy)
# ---------------------------------------------------------------------------
#
# The v2 payloads interleave varints with column bytes, so every column
# must be *parsed into* existence.  The v3 columnar container instead
# offset-indexes and 8-byte-aligns every region, so a reader holding an
# mmap'd buffer materializes any column as an ``np.frombuffer`` view --
# no intermediate ``bytes`` copy, and forked workers share the pages.
#
# Container layout (all integers little-endian, every frame and payload
# start 8-aligned, pad bytes zero)::
#
#     magic "JDX3" (4) | algorithm id (1) | pad (3) | n_terms u64
#     per term:  u32 term_len | u64 payload_len | u32 crc
#                | term bytes | pad to 8 | payload | pad to 8
#
# Per-term payload (offsets relative to the payload start)::
#
#     0   u64 n_seqs
#     8   u32 max_len
#     12  u32 score_mode
#     16  u64 lengths_off
#     24  u64 scores_off          (0 when score_mode == SCORES_NONE)
#     32  u64 level_offs[max_len]
#     ..  u64 level_lens[max_len]
#     ..  u8  schemes[max_len]    (0 = rle, 1 = delta), pad to 8
#     lengths_off   int64[n_seqs]
#     scores_off    float64[n_seqs] (EXACT) or uint16[n_seqs] (QUANTIZED),
#                   pad to 8
#     level_offs[l] the compressed column of level l+1, pad to 8
#
# Format v4 ("JDX4") keeps this layout byte-for-byte and only widens
# the scheme-byte vocabulary: ids 0-3 (0 = rle, 1 = delta, 2 = varint,
# 3 = for), each column's id chosen by the measured-size adaptive
# selector (`repro.index.compression.choose_codec`).  Readers dispatch
# on the recorded id -- no payload sniffing.

_MAGIC_COLUMNAR_V3 = b"JDX3"
_MAGIC_COLUMNAR_V4 = b"JDX4"
_V3_FILE_HEADER = struct.Struct("<4sB3xQ")      # magic, algo id, n_terms
_V3_FRAME = struct.Struct("<IQI")               # term_len, payload_len, crc
_V3_PAYLOAD_HEADER = struct.Struct("<QIIQQ")    # n_seqs, max_len,
                                                # score_mode, lengths_off,
                                                # scores_off


def _align8(pos: int) -> int:
    return (pos + 7) & ~7


def _encode_column_v3(values) -> Tuple[int, bytes]:
    """v3 column coder: the rle/delta heuristic, ids 0/1."""
    scheme, payload = compress_column(values)
    return (0 if scheme == "rle" else 1), payload


def _encode_column_v4(values) -> Tuple[int, bytes]:
    """v4 column coder: the measured-size adaptive selector, ids 0-3."""
    scheme, payload = choose_codec(values)
    return SCHEME_IDS[scheme], payload


def serialize_columnar_postings_v3(postings: ColumnarPostings,
                                   score_mode: int = SCORES_EXACT) -> bytes:
    """One term's offset-indexed, 8-aligned payload (format v3)."""
    return _serialize_columnar_postings(postings, score_mode,
                                        _encode_column_v3)


def serialize_columnar_postings_v4(postings: ColumnarPostings,
                                   score_mode: int = SCORES_EXACT) -> bytes:
    """One term's payload with v4 adaptive codec selection; layout is
    byte-identical to v3, only the scheme-id vocabulary widens."""
    return _serialize_columnar_postings(postings, score_mode,
                                        _encode_column_v4)


def _serialize_columnar_postings(postings: ColumnarPostings,
                                 score_mode: int,
                                 encode_column) -> bytes:
    n_seqs = len(postings)
    max_len = int(postings.max_len)
    columns: List[bytes] = []
    schemes = bytearray(max_len)
    for level in range(1, max_len + 1):
        scheme_id, payload = encode_column(postings.column(level).values)
        schemes[level - 1] = scheme_id
        columns.append(payload)

    # Two passes: lay out offsets, then fill the preallocated buffer.
    tables_off = _V3_PAYLOAD_HEADER.size
    level_offs_off = tables_off
    level_lens_off = level_offs_off + 8 * max_len
    schemes_off = level_lens_off + 8 * max_len
    lengths_off = _align8(schemes_off + max_len)
    cursor = lengths_off + 8 * n_seqs
    if score_mode == SCORES_EXACT:
        scores_off = cursor
        cursor += 8 * n_seqs
    elif score_mode == SCORES_QUANTIZED:
        scores_off = cursor
        cursor = _align8(cursor + 2 * n_seqs)
    elif score_mode == SCORES_NONE:
        scores_off = 0
    else:
        raise ValueError(f"unknown score mode {score_mode}")
    level_offs: List[int] = []
    for payload in columns:
        level_offs.append(cursor)
        cursor = _align8(cursor + len(payload))

    out = bytearray(cursor)
    _V3_PAYLOAD_HEADER.pack_into(out, 0, n_seqs, max_len, score_mode,
                                 lengths_off, scores_off)
    out[level_offs_off: level_offs_off + 8 * max_len] = np.asarray(
        level_offs, dtype=np.uint64).tobytes()
    out[level_lens_off: level_lens_off + 8 * max_len] = np.asarray(
        [len(p) for p in columns], dtype=np.uint64).tobytes()
    out[schemes_off: schemes_off + max_len] = schemes
    lengths = np.asarray(postings.lengths, dtype=np.int64).tobytes()
    out[lengths_off: lengths_off + len(lengths)] = lengths
    if score_mode == SCORES_EXACT:
        raw = np.asarray(postings.scores, dtype=np.float64).tobytes()
        out[scores_off: scores_off + len(raw)] = raw
    elif score_mode == SCORES_QUANTIZED:
        raw = np.asarray(np.asarray(postings.scores) * 256.0,
                         dtype=np.uint16).tobytes()
        out[scores_off: scores_off + len(raw)] = raw
    for off, payload in zip(level_offs, columns):
        out[off: off + len(payload)] = payload
    return bytes(out)


def serialize_columnar_index_v3(index: ColumnarIndex,
                                score_mode: int = SCORES_EXACT,
                                algorithm: str = None) -> bytes:
    """Format-v3 columnar container: aligned frames, checksummed."""
    return _serialize_columnar_index(index, score_mode, algorithm,
                                     _MAGIC_COLUMNAR_V3,
                                     serialize_columnar_postings_v3)


def serialize_columnar_index_v4(index: ColumnarIndex,
                                score_mode: int = SCORES_EXACT,
                                algorithm: str = None) -> bytes:
    """Format-v4 columnar container: v3 framing under the ``JDX4``
    magic, per-column codecs chosen by measured encoded size."""
    return _serialize_columnar_index(index, score_mode, algorithm,
                                     _MAGIC_COLUMNAR_V4,
                                     serialize_columnar_postings_v4)


def _serialize_columnar_index(index: ColumnarIndex, score_mode: int,
                              algorithm, magic: bytes,
                              serialize_postings) -> bytes:
    algorithm = algorithm if algorithm is not None else DEFAULT_ALGORITHM
    if algorithm not in ALGORITHM_IDS:
        raise ValueError(f"unknown checksum algorithm {algorithm!r}; "
                         f"one of {sorted(ALGORITHM_IDS)}")
    terms = index.vocabulary
    out = bytearray(_V3_FILE_HEADER.pack(magic,
                                         ALGORITHM_IDS[algorithm],
                                         len(terms)))
    for term in terms:
        payload = serialize_postings(index.term_postings(term), score_mode)
        term_bytes = term.encode("utf-8")
        out.extend(b"\x00" * (_align8(len(out)) - len(out)))
        out.extend(_V3_FRAME.pack(len(term_bytes), len(payload),
                                  checksum(payload, algorithm)))
        out.extend(term_bytes)
        out.extend(b"\x00" * (_align8(len(out)) - len(out)))
        out.extend(payload)
    return bytes(out)


def scan_v3_container(data, file: str = None
                      ) -> Tuple[str, List[BlockRef]]:
    """Walk a v3 container's framing without touching payloads.

    `data` may be ``bytes`` or a ``memoryview`` over an mmap; nothing
    here copies a payload.  Returns ``(algorithm_name, refs)`` with
    each ref's offset 8-aligned into `data`.
    """
    return _scan_container(data, _MAGIC_COLUMNAR_V3, file)


def scan_v4_container(data, file: str = None
                      ) -> Tuple[str, List[BlockRef]]:
    """Walk a v4 container's framing (identical to v3 framing)."""
    return _scan_container(data, _MAGIC_COLUMNAR_V4, file)


def _scan_container(data, magic: bytes, file: str = None
                    ) -> Tuple[str, List[BlockRef]]:
    if bytes(data[:4]) != magic:
        raise DatabaseFormatError(
            f"bad magic {bytes(data[:4])!r} "
            f"(expected {magic!r})"
            + (f" in {file}" if file else ""))
    if len(data) < _V3_FILE_HEADER.size:
        raise DatabaseCorruptError(
            "container truncated inside the header", file=file)
    _, algo_id, n_terms = _V3_FILE_HEADER.unpack_from(data, 0)
    if algo_id not in ALGORITHM_NAMES:
        raise DatabaseFormatError(
            f"unknown checksum algorithm id {algo_id}"
            + (f" in {file}" if file else ""))
    algorithm = ALGORITHM_NAMES[algo_id]
    refs: List[BlockRef] = []
    try:
        pos = _V3_FILE_HEADER.size
        for _ in range(n_terms):
            pos = _align8(pos)
            if len(data) < pos + _V3_FRAME.size:
                raise IndexError("frame runs off the end")
            term_len, payload_len, crc = _V3_FRAME.unpack_from(data, pos)
            pos += _V3_FRAME.size
            if len(data) < pos + term_len:
                raise IndexError("term runs off the end")
            term = bytes(data[pos: pos + term_len]).decode("utf-8")
            pos = _align8(pos + term_len)
            if len(data) < pos + payload_len:
                raise IndexError("payload runs off the end")
            refs.append(BlockRef(term, pos, payload_len, crc))
            pos += payload_len
    except (_PARSE_ERRORS + (struct.error,)) as exc:
        raise DatabaseCorruptError(
            f"v{magic[3:4].decode()} container framing corrupt: {exc}",
            file=file) from exc
    return algorithm, refs


def _scheme_name_v3(scheme_id: int) -> str:
    return "rle" if scheme_id == 0 else "delta"


def _scheme_name_v4(scheme_id: int) -> str:
    name = SCHEME_NAMES.get(int(scheme_id))
    if name is None:
        raise ValueError(f"unknown v4 scheme id {scheme_id}")
    return name


def parse_v3_payload(term: str, payload, file: str = None):
    """Decode a v3 per-term payload into zero-copy column views.

    `payload` is any buffer (typically a memoryview slice of an mmap).
    Returns ``(lengths, scores, level_payloads)`` where `lengths` is an
    ``int64`` view, `scores` a ``float64`` array (a view in EXACT mode,
    a small dequantized copy in QUANTIZED mode, zeros in NONE mode) and
    `level_payloads` a list of ``(scheme, uint8 view)`` pairs -- the
    shape `LazyColumnarPostings` consumes.
    """
    return _parse_payload(term, payload, _scheme_name_v3, file)


def parse_v4_payload(term: str, payload, file: str = None):
    """Decode a v4 per-term payload: v3 parsing with the widened
    scheme-id vocabulary (unknown ids raise `DatabaseCorruptError`)."""
    return _parse_payload(term, payload, _scheme_name_v4, file)


def _parse_payload(term: str, payload, scheme_name, file: str = None):
    try:
        (n_seqs, max_len, score_mode, lengths_off,
         scores_off) = _V3_PAYLOAD_HEADER.unpack_from(payload, 0)
        tables = _V3_PAYLOAD_HEADER.size
        level_offs = np.frombuffer(payload, dtype=np.uint64,
                                   count=max_len, offset=tables)
        level_lens = np.frombuffer(payload, dtype=np.uint64,
                                   count=max_len,
                                   offset=tables + 8 * max_len)
        schemes = np.frombuffer(payload, dtype=np.uint8, count=max_len,
                                offset=tables + 16 * max_len)
        lengths = np.frombuffer(payload, dtype=np.int64, count=n_seqs,
                                offset=lengths_off)
        if score_mode == SCORES_EXACT:
            scores = np.frombuffer(payload, dtype=np.float64,
                                   count=n_seqs, offset=scores_off)
        elif score_mode == SCORES_QUANTIZED:
            raw = np.frombuffer(payload, dtype=np.uint16, count=n_seqs,
                                offset=scores_off)
            scores = raw.astype(np.float64) / 256.0
        elif score_mode == SCORES_NONE:
            scores = np.zeros(n_seqs, dtype=np.float64)
        else:
            raise ValueError(f"unknown score mode {score_mode}")
        level_payloads = []
        for level in range(max_len):
            off = int(level_offs[level])
            length = int(level_lens[level])
            if off + length > len(payload):
                raise IndexError("column runs off the payload")
            column = np.frombuffer(payload, dtype=np.uint8, count=length,
                                   offset=off)
            level_payloads.append((scheme_name(schemes[level]), column))
    except (_PARSE_ERRORS + (struct.error,)) as exc:
        raise DatabaseCorruptError(
            f"postings for term {term!r} do not parse: {exc}",
            file=file, term=term) from exc
    return lengths, scores, level_payloads


def deserialize_columnar_index_v3(data, verify: bool = True,
                                  file: str = None,
                                  vectorized: bool = True
                                  ) -> Dict[str, ColumnarPostings]:
    """Eagerly load a format-v3 container (the ``lazy=False`` path).

    The eager path rebuilds full `ColumnarPostings` objects, so it does
    copy -- zero-copy loading is the lazy reader's job
    (`repro.index.lazydisk.LazyColumnarIndex`).
    """
    return _deserialize_columnar_index(data, scan_v3_container,
                                       parse_v3_payload, verify, file,
                                       vectorized)


def deserialize_columnar_index_v4(data, verify: bool = True,
                                  file: str = None,
                                  vectorized: bool = True
                                  ) -> Dict[str, ColumnarPostings]:
    """Eagerly load a format-v4 container (the ``lazy=False`` path)."""
    return _deserialize_columnar_index(data, scan_v4_container,
                                       parse_v4_payload, verify, file,
                                       vectorized)


def _deserialize_columnar_index(data, scan_container, parse_payload,
                                verify: bool, file, vectorized: bool
                                ) -> Dict[str, ColumnarPostings]:
    algorithm, refs = scan_container(data, file=file)
    result: Dict[str, ColumnarPostings] = {}
    for ref in refs:
        payload = (verify_block(data, ref, algorithm, file=file) if verify
                   else data[ref.offset: ref.offset + ref.length])
        lengths, scores, level_payloads = parse_payload(
            ref.term, payload, file=file)
        try:
            seqs: List[List[int]] = [[] for _ in range(len(lengths))]
            for level, (scheme, column) in enumerate(level_payloads,
                                                     start=1):
                values = decompress_column(scheme, column,
                                           vectorized=vectorized)
                cursor = 0
                for i, length in enumerate(lengths):
                    if length >= level:
                        seqs[i].append(int(values[cursor]))
                        cursor += 1
        except _PARSE_ERRORS as exc:
            raise DatabaseCorruptError(
                f"postings for term {ref.term!r} do not parse: {exc}",
                file=file, term=ref.term) from exc
        result[ref.term] = ColumnarPostings(
            ref.term, [tuple(s) for s in seqs],
            [float(s) for s in scores])
    return result


# ---------------------------------------------------------------------------
# Size accounting (Table I)
# ---------------------------------------------------------------------------

@dataclass
class IndexSizeReport:
    """Byte sizes of every structure Table I compares."""

    join_based_il: int = 0
    join_based_sparse: int = 0
    stack_based_il: int = 0
    index_based_btree: int = 0
    topk_join_il: int = 0
    rdil_il: int = 0
    rdil_btree: int = 0
    per_term: Dict[str, int] = field(default_factory=dict)

    def as_rows(self) -> List[Tuple[str, int]]:
        return [
            ("join-based IL", self.join_based_il),
            ("join-based sparse", self.join_based_sparse),
            ("stack-based IL", self.stack_based_il),
            ("index-based B-tree", self.index_based_btree),
            ("top-K join IL", self.topk_join_il),
            ("RDIL IL", self.rdil_il),
            ("RDIL B-tree", self.rdil_btree),
        ]


def dewey_list_size(plist: PostingList) -> int:
    """Bytes of `plist` under the prefix compression of Xu &
    Papakonstantinou [6]: each id stores the length of the prefix it
    shares with its predecessor, the suffix length and the suffix, all
    as varints, after a term / count header."""
    term_bytes = len(plist.term.encode("utf-8"))
    size = varint_size(term_bytes) + term_bytes + varint_size(len(plist))
    prev: Tuple[int, ...] = ()
    for posting in plist.postings:
        dewey = posting.dewey
        shared = 0
        limit = min(len(prev), len(dewey))
        while shared < limit and prev[shared] == dewey[shared]:
            shared += 1
        size += varint_size(shared) + varint_size(len(dewey) - shared)
        size += sum(varint_size(c) for c in dewey[shared:])
        prev = dewey
    return size


def _btree_size(total_key_bytes: int, n_entries: int) -> int:
    leaf = (total_key_bytes + n_entries * BTREE_ENTRY_OVERHEAD)
    return int(leaf / BTREE_FILL_FACTOR * BTREE_INTERNAL_FACTOR)


def measure_sizes(columnar: ColumnarIndex, inverted: InvertedIndex,
                  granularity: int = DEFAULT_GRANULARITY) -> IndexSizeReport:
    """Compute every Table I cell for one document."""
    report = IndexSizeReport()
    for term in columnar.vocabulary:
        postings = columnar.term_postings(term)
        blob = serialize_columnar_postings(postings, with_scores=False)
        report.join_based_il += len(blob)
        report.per_term[term] = len(blob)
        scored_blob = serialize_columnar_postings(postings, with_scores=True)
        # Group-by-length headers: one (length, count) varint pair per group.
        group_header = sum(
            varint_size(int(length)) + varint_size(int(count))
            for length, count in zip(*np.unique(postings.lengths,
                                                return_counts=True)))
        report.topk_join_il += len(scored_blob) + group_header
        for level in range(1, postings.max_len + 1):
            column = postings.column(level)
            sparse = SparseColumnIndex(column.distinct, granularity)
            report.join_based_sparse += sparse.size_bytes()

    btree_key_bytes = 0
    btree_entries = 0
    rdil_key_bytes = 0
    for term in inverted.vocabulary:
        plist = inverted.term_list(term)
        report.stack_based_il += dewey_list_size(plist)
        term_bytes = len(term.encode("utf-8"))
        for posting in plist.postings:
            dewey_bytes = sum(varint_size(c) for c in posting.dewey)
            # Index-based baseline: the key entry repeats the keyword.
            btree_key_bytes += term_bytes + dewey_bytes
            rdil_key_bytes += dewey_bytes
            btree_entries += 1
    report.index_based_btree = _btree_size(btree_key_bytes, btree_entries)
    report.rdil_il = report.stack_based_il
    report.rdil_btree = _btree_size(rdil_key_bytes, btree_entries)
    return report
