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

The container round-trips (tests assert equality); the per-term
layout is a size model and has no reader.  The baselines run in memory
over lists derived from the columnar index (`repro.index.inverted`), so
nothing Dewey-shaped is written to disk.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..reliability.checksum import (ALGORITHM_IDS, ALGORITHM_NAMES,
                                    DEFAULT_ALGORITHM, checksum)
from ..reliability.errors import DatabaseCorruptError, DatabaseFormatError
from .columnar import ColumnarIndex, ColumnarPostings, batch_level_values
from .compression import (PAPER_CODECS, SCHEME_NAMES, SCHEME_VARINT,
                          decode_varint_column, encode_columns, runs_of,
                          varint_size, write_varint)
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
SCORES_EXACT = 2       # float64, what the container stores


def serialize_columnar_postings(postings: ColumnarPostings,
                                with_scores: bool = False) -> bytes:
    """Serialize one term's columnar list.

    Layout: term, n_seqs, max_len, the varint column of sequence lengths,
    then each level's compressed column.  The per-level seq ordinals are
    *not* stored: they are implied by the lengths column (a sequence of
    length >= l contributes the next value of column l, in order), which
    is exactly the storage saving of the columnar layout.

    ``with_scores=True`` appends the 2-byte quantized scores (the
    top-K list's on-disk footprint Table I measures).
    """
    return _paper_layouts([postings], with_scores)[0]


def _paper_layouts(postings: Sequence[ColumnarPostings],
                   with_scores: bool) -> List[bytes]:
    """`serialize_columnar_postings` of consecutive terms, their
    columns encoded in one batch."""
    values, bounds, lengths = batch_level_values(postings)
    schemes, payloads = encode_columns(values, bounds, PAPER_CODECS)
    blobs, first = [], 0
    for p in postings:
        out = bytearray()
        term_bytes = p.term.encode("utf-8")
        write_varint(out, len(term_bytes))
        out.extend(term_bytes)
        write_varint(out, len(p))
        write_varint(out, p.max_len)
        out.append(SCORES_QUANTIZED if with_scores else SCORES_NONE)
        for length in p.lengths:
            write_varint(out, int(length))
        for at in range(first, first + p.max_len):
            out.append(schemes[at])
            write_varint(out, len(payloads[at]))
            out.extend(payloads[at])
        if with_scores:
            out.extend(np.asarray(p.scores * 256.0, dtype=np.uint16)
                       .tobytes())
        blobs.append(bytes(out))
        first += p.max_len
    return blobs


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
#     12  u32 score_mode          (SCORES_EXACT; any other is corrupt)
#     16  u32 lengths_off
#     20  u32 lengths_len
#     24  u64 scores_off          (0 when n_seqs == 0)
#     32  u64 level_offs[max_len]
#     ..  u64 level_lens[max_len]
#     ..  u8  schemes[max_len]    (`compression.SCHEME_IDS`), pad to 8
#     lengths_off   varint column of (length, run) pairs -- the sequence
#                   lengths run-length coded: a term whose sequences
#                   share one length (the usual case) is one pair --
#                   pad to 8
#     scores_off    float64[n_seqs], pad to 8
#     level_offs[l] the compressed column of level l+1, pad to 8
#
# Each column's scheme id is `choose_codec`'s pick; readers dispatch on
# the recorded id -- no payload sniffing -- and an id outside
# `SCHEME_IDS` is corruption.  The writer makes those picks a batch of
# consecutive terms at a time (`serialize_columnar_payloads`): one
# `NodeTable.paths` sweep reads every level of every term in the batch,
# `compression.encode_columns` picks and encodes all their columns in
# one pass, and each term's payload is cut from the result -- the bytes
# `choose_codec` run column by column would give.

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


def _encode_lengths(per_term: Sequence[Sequence[int]]) -> List[bytes]:
    """Each term's sequence lengths as a varint column of (length, run)
    pairs -- a term whose sequences share one length is one pair -- for
    a batch of terms in one `encode_columns` call."""
    lengths = np.concatenate([np.asarray(x, dtype=np.int64)
                              for x in per_term])
    sizes = np.array([len(x) for x in per_term])
    starts = np.cumsum(sizes) - sizes
    fresh = np.ones(len(lengths), dtype=bool)
    fresh[1:] = lengths[1:] != lengths[:-1]
    fresh[starts[sizes > 0]] = True
    opens = np.flatnonzero(fresh)
    pairs = np.column_stack((lengths[opens], np.diff(
        np.append(opens, len(lengths))))).ravel()
    return encode_columns(
        pairs, 2 * np.searchsorted(opens, np.append(starts, len(lengths))),
        (SCHEME_VARINT,))[1]


def _decode_lengths(data, n_seqs: int, max_len: int) -> np.ndarray:
    """Inverse of `_encode_lengths`, as ``int64`` (level arithmetic on
    a narrower or unsigned type would wrap)."""
    # Usually one pair in a handful of bytes, checked in Python ints,
    # whose sum cannot wrap.
    pairs = decode_varint_column(data).tolist()
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


#: Occurrences the writer encodes at once: enough terms that the numpy
#: passes run over thousands of values, few enough that a batch's
#: arrays stay small (a term with more is a batch alone).
_BATCH_OCCURRENCES = 4096


def serialize_columnar_payloads(postings: Sequence[ColumnarPostings],
                                keep: Optional[np.ndarray] = None
                                ) -> List[bytes]:
    """Consecutive terms' offset-indexed, 8-aligned payloads, encoded
    as one batch: every level of every term read in one go
    (`batch_level_values`) and handed to `encode_columns` together, the
    sequence lengths likewise.  `keep`, one flag per occurrence of the
    batch (laid end to end), encodes only the flagged ones: one
    shard's."""
    if not postings:
        return []
    values, bounds, lengths = batch_level_values(postings, keep)
    schemes, columns = encode_columns(values, bounds)
    scores = np.concatenate([np.asarray(p.scores, dtype=np.float64)
                             for p in postings])
    counts = np.array([len(p) for p in postings])
    if keep is not None:
        scores = scores[keep]
        counts = np.bincount(np.repeat(np.arange(len(postings)), counts)[keep],
                             minlength=len(postings))
    ends = np.cumsum(counts)
    max_lens = np.zeros(len(counts), dtype=np.int64)
    if len(lengths):
        max_lens[counts > 0] = np.maximum.reduceat(lengths,
                                                   (ends - counts)[counts > 0])
    payloads: List[bytes] = []
    first = 0
    for n, end, max_len, length_column in zip(
            counts.tolist(), ends.tolist(), max_lens.tolist(),
            _encode_lengths(np.split(lengths, ends[:-1]))):
        levels = columns[first: first + max_len]
        level_lens = [len(c) for c in levels]
        # Lay out the offsets, then fill the preallocated buffer.
        lengths_off = _align8(_PAYLOAD_HEADER.size + 17 * max_len)
        scores_off = _align8(lengths_off + len(length_column))
        cursor = scores_off + 8 * n
        level_offs: List[int] = []
        for size in level_lens:
            level_offs.append(cursor)
            cursor = _align8(cursor + size)
        out = bytearray(cursor)
        _PAYLOAD_HEADER.pack_into(out, 0, n, max_len, SCORES_EXACT,
                                  lengths_off, len(length_column),
                                  scores_off if n else 0)
        struct.pack_into(f"<{2 * max_len}Q", out, _PAYLOAD_HEADER.size,
                         *level_offs, *level_lens)
        schemes_off = _PAYLOAD_HEADER.size + 16 * max_len
        out[schemes_off: schemes_off + max_len] = \
            schemes[first: first + max_len].tobytes()
        out[lengths_off: lengths_off + len(length_column)] = length_column
        out[scores_off: scores_off + 8 * n] = scores[end - n: end].tobytes()
        for off, column in zip(level_offs, levels):
            out[off: off + len(column)] = column
        payloads.append(bytes(out))
        first += max_len
    return payloads


def serialize_columnar_index(index: ColumnarIndex,
                             algorithm: str = None) -> bytes:
    """The columnar container: the join of `container_chunks`."""
    return b"".join(container_chunks(index, algorithm))


def container_chunks(index: ColumnarIndex, algorithm: str = None,
                     owners: Optional[Dict[str, np.ndarray]] = None,
                     sid: int = 0) -> Iterator[bytes]:
    """The columnar container, piece by piece: the file header, then
    each term's frame head and payload -- what
    `repro.diskdb.save_database` streams into its staged file.  Terms
    are encoded a batch at a time (`serialize_columnar_payloads`, about
    `_BATCH_OCCURRENCES` occurrences each), only when the stream gets
    to them; a batch holds at most that many, or one term.

    With `owners` (per term, the shard of each occurrence:
    `repro.serve.sharding.shard_owners`) it is shard `sid`'s container:
    each batch keeps the occurrences `sid` owns, and a term it owns
    none of is left out.

    Every payload's length is a multiple of 8, so each frame starts
    8-aligned with no padding before it."""
    algorithm = algorithm if algorithm is not None else DEFAULT_ALGORITHM
    if algorithm not in ALGORITHM_IDS:
        raise ValueError(f"unknown checksum algorithm {algorithm!r}; "
                         f"one of {sorted(ALGORITHM_IDS)}")
    terms = index.vocabulary
    sizes = None
    if owners is not None:
        sizes = {term: int(np.count_nonzero(owners[term] == sid))
                 for term in terms}
        terms = [term for term in terms if sizes[term]]
    yield _FILE_HEADER.pack(MAGIC_COLUMNAR, ALGORITHM_IDS[algorithm],
                            len(terms))
    for batch in _batches(index, terms, sizes):
        yield from _frames(batch, algorithm, None if owners is None else
                           np.concatenate([owners[t] for t, _ in batch])
                           == sid)


def _batches(index: ColumnarIndex, terms: List[str],
             sizes: Optional[Dict[str, int]] = None
             ) -> Iterator[List[Tuple[str, ColumnarPostings]]]:
    """`terms` and their postings in consecutive batches of at most
    `_BATCH_OCCURRENCES` occurrences (of those `sizes` counts per term,
    when given), or of one term that has more."""
    batch: List[Tuple[str, ColumnarPostings]] = []
    occurrences = 0
    for term in terms:
        postings = index.term_postings(term)
        size = len(postings) if sizes is None else sizes[term]
        if batch and occurrences + size > _BATCH_OCCURRENCES:
            yield batch
            batch, occurrences = [], 0
        batch.append((term, postings))
        occurrences += size
    if batch:
        yield batch


def _frames(batch: Sequence[Tuple[str, ColumnarPostings]],
            algorithm: str, keep: Optional[np.ndarray]) -> Iterator[bytes]:
    """Each term's frame head and payload, for a batch of terms (their
    occurrences `keep` flags, when given)."""
    payloads = serialize_columnar_payloads([p for _, p in batch], keep)
    for (term, _), payload in zip(batch, payloads):
        term_bytes = term.encode("utf-8")
        yield (_FRAME.pack(len(term_bytes), len(payload),
                           checksum(payload, algorithm))
               + term_bytes + bytes(-len(term_bytes) % 8))
        yield payload


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


def scan_schemes(data, file: str = None) -> Iterator[str]:
    """The codec of every column in the container, term by term, read
    from the payload headers alone: nothing is decoded."""
    for ref in scan_container(data, file=file)[1]:
        try:
            max_len = _PAYLOAD_HEADER.unpack_from(data, ref.offset)[1]
            ids = np.frombuffer(data, dtype=np.uint8, count=max_len,
                                offset=(ref.offset + _PAYLOAD_HEADER.size
                                        + 16 * max_len))
            yield from (SCHEME_NAMES[int(i)] for i in ids)
        except _PARSE_ERRORS as exc:
            raise DatabaseCorruptError(
                f"postings for term {ref.term!r} do not parse: {exc}",
                file=file, term=ref.term) from exc


def parse_payload(term: str, payload, file: str = None):
    """Decode one term's payload into column views.

    `payload` is any buffer (typically a memoryview slice of an mmap).
    Returns ``(lengths, scores, level_payloads)`` where `lengths` is an
    ``int64`` array, `scores` a zero-copy ``float64`` view and
    `level_payloads` a list of ``(scheme, uint8 view)`` pairs -- the
    shape `LazyColumnarPostings` consumes.  A payload whose score mode
    is not `SCORES_EXACT` (the only one the writer stores) is
    corrupt.
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
        if score_mode != SCORES_EXACT:
            raise ValueError(f"score mode {score_mode} is not the exact "
                             f"scores ({SCORES_EXACT}) the writer stores")
        scores = np.frombuffer(payload, dtype=np.float64, count=n_seqs,
                               offset=scores_off)
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
    for batch in _batches(columnar, columnar.vocabulary):
        blobs = _paper_layouts([p for _, p in batch], with_scores=False)
        for (term, postings), blob in zip(batch, blobs):
            report.join_based_il += len(blob)
            report.per_term[term] = len(blob)
            # Group-by-length headers: one (length, count) varint pair
            # per group; the scored list is the same bytes and a
            # quantized score a sequence.
            group_header = sum(
                varint_size(int(length)) + varint_size(int(count))
                for length, count in zip(*np.unique(postings.lengths,
                                                    return_counts=True)))
            report.topk_join_il += len(blob) + SCORE_BYTES * len(postings) \
                + group_header
            for values in postings.level_values():
                sparse = SparseColumnIndex(runs_of(values)[0], granularity)
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
