"""The on-disk columnar container, and size accounting (paper Table I).

Two things live here.  The **container** is what `repro.diskdb` writes
as ``columnar.bin`` and everything reads: `serialize_columnar_index` /
`scan_container` / `verify_block` / `parse_payload` (layout below, at
the code; `repro.index.lazydisk.LazyColumnarIndex` is the reader).  The
**size models** reproduce Table I: a byte-accurate serialization of the
paper's compact per-term layout for the columnar lists, and models with
explicit constants for the baseline structures the paper measures --

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
baselines run in memory over lists derived from the columnar index
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
from .compression import (PAPER_CODECS, SCHEME_IDS, SCHEME_NAMES,
                          SCHEME_VARINT, choose_codec, decompress_column,
                          encode_varint_column, read_varint, varint_size,
                          write_varint)
from .inverted import InvertedIndex, PostingList
from .sparse import DEFAULT_GRANULARITY, SparseColumnIndex

# B-tree cost-model constants (BerkeleyDB-flavoured).
BTREE_ENTRY_OVERHEAD = 12   # per-entry header + leaf pointer bytes
BTREE_FILL_FACTOR = 0.70    # leaf page utilization
BTREE_INTERNAL_FACTOR = 1.10  # internal pages on top of the leaf level
SCORE_BYTES = 2             # quantized per-occurrence score (top-K IL)


# ---------------------------------------------------------------------------
# The paper's compact per-term layout (the Table I size model)
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
    write_varint(out, len(postings))
    write_varint(out, postings.max_len)
    out.append(score_mode)
    for length in postings.lengths:
        write_varint(out, int(length))
    for level in range(1, postings.max_len + 1):
        column = postings.column(level)
        scheme, payload = choose_codec(column.values, PAPER_CODECS)
        out.append(SCHEME_IDS[scheme])
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
        values = decompress_column(SCHEME_NAMES[scheme_byte], payload)
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


# ---------------------------------------------------------------------------
# The columnar container (what `save_database` writes and everything reads)
# ---------------------------------------------------------------------------
#
# Every region is offset-indexed and 8-byte-aligned, so a reader holding
# an mmap'd buffer materializes scores and compressed columns as
# ``np.frombuffer`` views -- no intermediate ``bytes`` copy, and forked
# workers share the pages.  Each term's payload carries its own CRC and
# repeats the term in its frame: a reader verifies exactly the bytes a
# query touches and can name the keyword of a corrupt block without
# parsing it.
#
# Container layout (all integers little-endian, every frame and payload
# start 8-aligned, pad bytes zero)::
#
#     magic "JDX5" (4) | algorithm id (1) | pad (3) | n_terms u64
#     per term:  u32 term_len | u64 payload_len | u32 crc
#                | term bytes | pad to 8 | payload | pad to 8
#
# Per-term payload (offsets relative to the payload start)::
#
#     0   u64 n_seqs
#     8   u32 max_len
#     12  u32 score_mode
#     16  u32 lengths_off
#     20  u32 lengths_len
#     24  u64 scores_off          (0 when score_mode == SCORES_NONE)
#     32  u64 level_offs[max_len]
#     ..  u64 level_lens[max_len]
#     ..  u8  schemes[max_len]    (`compression.SCHEME_IDS`), pad to 8
#     lengths_off   varint column of (length, run) pairs -- the sequence
#                   lengths run-length coded: a term whose sequences
#                   share one length (the usual case) is one pair --
#                   pad to 8
#     scores_off    float64[n_seqs] (EXACT) or uint16[n_seqs] (QUANTIZED),
#                   pad to 8
#     level_offs[l] the compressed column of level l+1, pad to 8
#
# Each column's scheme id is `choose_codec`'s pick; readers dispatch on
# the recorded id -- no payload sniffing -- and an id outside
# `SCHEME_IDS` is corruption.

MAGIC_COLUMNAR = b"JDX5"
_FILE_HEADER = struct.Struct("<4sB3xQ")      # magic, algo id, n_terms
_FRAME = struct.Struct("<IQI")               # term_len, payload_len, crc
_PAYLOAD_HEADER = struct.Struct("<QIIIIQ")   # n_seqs, max_len, score_mode,
                                             # lengths_off, lengths_len,
                                             # scores_off

#: Everything a malformed byte stream can make the parsers raise --
#: turned into the typed `DatabaseCorruptError` at this boundary so no
#: raw IndexError/ValueError/MemoryError ever reaches a caller.
_PARSE_ERRORS = (IndexError, KeyError, OverflowError, MemoryError,
                 UnicodeDecodeError, ValueError, struct.error)


@dataclass(frozen=True)
class BlockRef:
    """Locator for one term's checksummed payload inside a container."""

    term: str
    offset: int        # payload start, as an offset into the container
    length: int
    crc: int


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


def _align8(pos: int) -> int:
    return (pos + 7) & ~7


def _encode_lengths(lengths) -> bytes:
    """The sequence lengths as a varint column of (length, run) pairs."""
    lengths = np.asarray(lengths, dtype=np.int64)
    if not len(lengths):
        return encode_varint_column([])
    bounds = np.concatenate((            # where each run starts, then n
        [0], np.flatnonzero(lengths[1:] != lengths[:-1]) + 1,
        [len(lengths)]))
    return encode_varint_column(np.column_stack(
        (lengths[bounds[:-1]], np.diff(bounds))).ravel())


def _decode_lengths(data, n_seqs: int, max_len: int) -> np.ndarray:
    """Inverse of `_encode_lengths`, as ``int64`` (level arithmetic on
    a narrower or unsigned type would wrap)."""
    # Usually one pair in a handful of bytes: the scalar decoder (the
    # size crossover picks it) and Python ints, whose sum cannot wrap.
    pairs = decompress_column(SCHEME_VARINT, data).tolist()
    values, runs = pairs[0::2], pairs[1::2]
    # Checked before `np.repeat`, so a hostile run cannot ask for more
    # memory than the header's n_seqs (itself bounded by the scores
    # region) vouches for.
    if len(values) != len(runs) or min(runs, default=0) < 0 \
            or sum(runs) != n_seqs:
        raise ValueError(f"length runs do not cover {n_seqs} sequences")
    if n_seqs and (min(values) < 1 or max(values) != max_len):
        raise ValueError(f"sequence lengths are not 1..{max_len}")
    return np.repeat(np.asarray(values, dtype=np.int64), runs)


def serialize_columnar_payload(postings: ColumnarPostings,
                               score_mode: int = SCORES_EXACT) -> bytes:
    """One term's offset-indexed, 8-aligned payload."""
    n_seqs = len(postings)
    max_len = int(postings.max_len)
    columns: List[bytes] = []
    schemes = bytearray(max_len)
    for level in range(1, max_len + 1):
        scheme, payload = choose_codec(postings.column(level).values)
        schemes[level - 1] = SCHEME_IDS[scheme]
        columns.append(payload)
    lengths = _encode_lengths(postings.lengths)

    # Two passes: lay out offsets, then fill the preallocated buffer.
    level_offs_off = _PAYLOAD_HEADER.size
    level_lens_off = level_offs_off + 8 * max_len
    schemes_off = level_lens_off + 8 * max_len
    lengths_off = _align8(schemes_off + max_len)
    cursor = _align8(lengths_off + len(lengths))
    if score_mode == SCORES_EXACT:
        scores = np.asarray(postings.scores, dtype=np.float64).tobytes()
    elif score_mode == SCORES_QUANTIZED:
        scores = np.asarray(np.asarray(postings.scores) * 256.0,
                            dtype=np.uint16).tobytes()
    elif score_mode == SCORES_NONE:
        scores = b""
    else:
        raise ValueError(f"unknown score mode {score_mode}")
    scores_off = cursor if scores else 0
    cursor = _align8(cursor + len(scores))
    level_offs: List[int] = []
    for payload in columns:
        level_offs.append(cursor)
        cursor = _align8(cursor + len(payload))

    out = bytearray(cursor)
    _PAYLOAD_HEADER.pack_into(out, 0, n_seqs, max_len, score_mode,
                              lengths_off, len(lengths), scores_off)
    out[level_offs_off: level_lens_off] = np.asarray(
        level_offs, dtype=np.uint64).tobytes()
    out[level_lens_off: schemes_off] = np.asarray(
        [len(p) for p in columns], dtype=np.uint64).tobytes()
    out[schemes_off: schemes_off + max_len] = schemes
    out[lengths_off: lengths_off + len(lengths)] = lengths
    out[scores_off: scores_off + len(scores)] = scores
    for off, payload in zip(level_offs, columns):
        out[off: off + len(payload)] = payload
    return bytes(out)


def serialize_columnar_index(index: ColumnarIndex,
                             score_mode: int = SCORES_EXACT,
                             algorithm: str = None) -> bytes:
    """The columnar container: aligned, checksummed per-term frames."""
    algorithm = algorithm if algorithm is not None else DEFAULT_ALGORITHM
    if algorithm not in ALGORITHM_IDS:
        raise ValueError(f"unknown checksum algorithm {algorithm!r}; "
                         f"one of {sorted(ALGORITHM_IDS)}")
    terms = index.vocabulary
    out = bytearray(_FILE_HEADER.pack(MAGIC_COLUMNAR,
                                      ALGORITHM_IDS[algorithm], len(terms)))
    for term in terms:
        payload = serialize_columnar_payload(index.term_postings(term),
                                             score_mode)
        term_bytes = term.encode("utf-8")
        out.extend(b"\x00" * (_align8(len(out)) - len(out)))
        out.extend(_FRAME.pack(len(term_bytes), len(payload),
                               checksum(payload, algorithm)))
        out.extend(term_bytes)
        out.extend(b"\x00" * (_align8(len(out)) - len(out)))
        out.extend(payload)
    return bytes(out)


def scan_container(data, file: str = None) -> Tuple[str, List[BlockRef]]:
    """Walk the container's framing without touching payloads.

    `data` may be ``bytes`` or a ``memoryview`` over an mmap; nothing
    here copies a payload.  Returns ``(algorithm_name, refs)`` with
    each ref's offset 8-aligned into `data`.  Raises
    `DatabaseFormatError` on a wrong magic or unknown algorithm id and
    `DatabaseCorruptError` when the framing runs off the end of the
    buffer (truncation).
    """
    where = f" in {file}" if file else ""
    if bytes(data[:4]) != MAGIC_COLUMNAR:
        raise DatabaseFormatError(
            f"bad magic {bytes(data[:4])!r} (expected {MAGIC_COLUMNAR!r})"
            + where)
    if len(data) < _FILE_HEADER.size:
        raise DatabaseCorruptError(
            "container truncated inside the header", file=file)
    _, algo_id, n_terms = _FILE_HEADER.unpack_from(data, 0)
    if algo_id not in ALGORITHM_NAMES:
        raise DatabaseFormatError(
            f"unknown checksum algorithm id {algo_id}" + where)
    refs: List[BlockRef] = []
    try:
        pos = _FILE_HEADER.size
        for _ in range(n_terms):
            pos = _align8(pos)
            if len(data) < pos + _FRAME.size:
                raise IndexError("frame runs off the end")
            term_len, payload_len, crc = _FRAME.unpack_from(data, pos)
            pos += _FRAME.size
            if len(data) < pos + term_len:
                raise IndexError("term runs off the end")
            term = bytes(data[pos: pos + term_len]).decode("utf-8")
            pos = _align8(pos + term_len)
            if len(data) < pos + payload_len:
                raise IndexError("payload runs off the end")
            refs.append(BlockRef(term, pos, payload_len, crc))
            pos += payload_len
    except _PARSE_ERRORS as exc:
        raise DatabaseCorruptError(
            f"container framing corrupt: {exc}", file=file) from exc
    return ALGORITHM_NAMES[algo_id], refs


def parse_payload(term: str, payload, file: str = None):
    """Decode one term's payload into column views.

    `payload` is any buffer (typically a memoryview slice of an mmap).
    Returns ``(lengths, scores, level_payloads)`` where `lengths` is an
    ``int64`` array, `scores` a ``float64`` array (a zero-copy view in
    EXACT mode, a small dequantized copy in QUANTIZED mode, zeros in
    NONE mode) and `level_payloads` a list of ``(scheme, uint8 view)``
    pairs -- the shape `LazyColumnarPostings` consumes.
    """
    try:
        (n_seqs, max_len, score_mode, lengths_off, lengths_len,
         scores_off) = _PAYLOAD_HEADER.unpack_from(payload, 0)
        tables = _PAYLOAD_HEADER.size
        level_offs = np.frombuffer(payload, dtype=np.uint64,
                                   count=max_len, offset=tables)
        level_lens = np.frombuffer(payload, dtype=np.uint64,
                                   count=max_len,
                                   offset=tables + 8 * max_len)
        schemes = np.frombuffer(payload, dtype=np.uint8, count=max_len,
                                offset=tables + 16 * max_len)
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
        lengths = _decode_lengths(
            np.frombuffer(payload, dtype=np.uint8, count=lengths_len,
                          offset=lengths_off), n_seqs, max_len)
        level_payloads = []
        for level in range(max_len):
            off = int(level_offs[level])
            length = int(level_lens[level])
            if off + length > len(payload):
                raise IndexError("column runs off the payload")
            column = np.frombuffer(payload, dtype=np.uint8, count=length,
                                   offset=off)
            scheme = SCHEME_NAMES.get(int(schemes[level]))
            if scheme is None:
                raise ValueError(f"unknown scheme id {schemes[level]}")
            level_payloads.append((scheme, column))
    except _PARSE_ERRORS as exc:
        raise DatabaseCorruptError(
            f"postings for term {term!r} do not parse: {exc}",
            file=file, term=term) from exc
    return lengths, scores, level_payloads


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
