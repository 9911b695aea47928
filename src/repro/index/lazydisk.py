"""Disk-resident columnar lists with per-column lazy decompression.

The paper stores inverted lists vertically precisely so that query
evaluation touches one column at a time: "the algorithm does not read
the whole JDewey sequences from the disk at once ... this would save
disk I/O when the XML tree is deep and some keywords only appear at
high levels" (section III-B).

`LazyColumnarPostings` keeps each level's *compressed* payload and
decompresses a column only on first access; `IOStats` counts the
columns and bytes actually touched, which is the currency of the
section III-B claim (asserted in the lazy-I/O ablation benchmark).
`LazyColumnarIndex` serves a whole vocabulary from one container (the
format written by `storage.serialize_columnar_index`) and is how every
opened database reads its index: the framing is scanned up front, a
term's payload is verified and parsed on its first touch, and every
column decompresses on its own first access.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..obs.account import active_account
from ..obs.tracing import span
from ..reliability.deadline import check_active
from ..reliability.errors import DatabaseCorruptError
from ..scoring.ranking import RankingModel
from ..xmltree.jdewey import JDeweySeq
from ..xmltree.nodetable import NodeTable
from .columnar import Column, ColumnarIndex, ColumnarPostings
from .compression import decompress_column
from .storage import (_PARSE_ERRORS, BlockRef, parse_payload, scan_container,
                      verify_block)
from .tokenizer import Tokenizer


@dataclass
class IOStats:
    """Columns and bytes decompressed since construction / reset."""

    columns_read: int = 0
    compressed_bytes_read: int = 0
    per_level: Dict[int, int] = field(default_factory=dict)

    def record(self, level: int, payload_size: int) -> None:
        self.columns_read += 1
        self.compressed_bytes_read += payload_size
        self.per_level[level] = self.per_level.get(level, 0) + 1

    def reset(self) -> None:
        self.columns_read = 0
        self.compressed_bytes_read = 0
        self.per_level.clear()


class LazyColumnarPostings(ColumnarPostings):
    """One term's columnar list backed by compressed per-level payloads.

    Columns decompress on first access and are cached; nothing on the
    query path asks for the sequence-of-tuples view (`seqs`), which is
    rebuilt from the columns whenever it is read.
    """

    def __init__(self, term: str, lengths: Sequence[int],
                 level_payloads: List[Tuple[str, bytes]],
                 scores: Sequence[float],
                 io_stats: Optional[IOStats] = None,
                 decoded_cache=None, cache_ns: str = ""):
        # Deliberately *not* calling super().__init__: the whole point
        # is to avoid building `seqs`.  When backed by an mmap the
        # scores and payload buffers are read-only numpy views into the
        # mapping; `np.asarray` keeps them view-shaped.
        self.term = term
        self.lengths = np.asarray(lengths, dtype=np.int64)
        self.scores = np.asarray(scores, dtype=np.float64)
        self.max_len = int(self.lengths.max()) if len(self.lengths) else 0
        self._level_payloads = level_payloads
        self._columns: Dict[int, Column] = {}
        self.io = io_stats if io_stats is not None else IOStats()
        # Optional shared `cache.DecodedColumnCache`.  When present it
        # replaces the unbounded per-postings `_columns` dict for the
        # payload-bearing levels: decoded columns live in one bounded
        # LRU keyed (namespace, term, level) instead of being pinned
        # here forever.  Empty columns (level > max_len) stay local --
        # they cost nothing and need no eviction.
        self._decoded_cache = decoded_cache
        self._cache_ns = cache_ns

    @property
    def seqs(self) -> List[JDeweySeq]:
        """The JDewey sequences, in JDewey order -- what the in-memory
        `ColumnarPostings` was built from.  Re-sharding and the open-time
        consistency check read it, through `level_values`, so neither
        decodes into the query path's column cache; queries read
        `column`."""
        seqs: List[List[int]] = [[] for _ in range(len(self))]
        for level, values in enumerate(self.level_values(), 1):
            ordinals = np.flatnonzero(self.lengths >= level)
            for ordinal, number in zip(ordinals.tolist(), values.tolist()):
                seqs[ordinal].append(number)
        return [tuple(seq) for seq in seqs]

    def column(self, level: int) -> Column:
        if level < 1:
            raise ValueError("levels are 1-based")
        cached = self._columns.get(level)
        if cached is not None:
            return cached
        shared = (self._decoded_cache
                  if self._decoded_cache is not None
                  and level <= self.max_len else None)
        if shared is not None:
            key = (self._cache_ns, self.term, level)
            hit = shared.get(key)
            if hit is not None:
                account = active_account()
                if account is not None:
                    account.record_decode_cache(True, hit.nbytes)
                return hit
        column = self._decode(level)
        if shared is not None:
            account = active_account()
            if account is not None:
                account.record_decode_cache(False, column.nbytes)
            shared.put(key, column)
        else:
            self._columns[level] = column
        return column

    def level_values(self) -> Iterator[np.ndarray]:
        """Each level's values, decoded from its stored column and
        cached nowhere (what re-saving an opened database encodes)."""
        for level in range(1, self.max_len + 1):
            yield self._decode(level).values

    def _decode(self, level: int) -> Column:
        """The column of `level`, decompressed from its stored runs (an
        empty one past `max_len`)."""
        ordinals = np.flatnonzero(self.lengths >= level)
        if level > self.max_len:
            return Column.of_rows(level, np.empty(0, dtype=np.int64),
                                  ordinals)
        # The index's "disk read": poll the scoped deadline at every
        # posting fetch, so a budgeted query cannot stall inside a long
        # decompression chain (a getattr + None test when no deadline
        # is active).
        check_active()
        scheme, payload = self._level_payloads[level - 1]
        self.io.record(level, len(payload))
        try:
            with span("decompress", codec=scheme, bytes=len(payload)):
                distinct, run_starts = decompress_column(
                    scheme, payload, len(ordinals))
        except _PARSE_ERRORS as exc:
            # Reachable only with verification off (or a CRC
            # collision): the block checksum covers these bytes.
            raise DatabaseCorruptError(
                f"level-{level} column of term {self.term!r} does "
                f"not decode: {exc}", term=self.term) from exc
        column = Column(level, distinct, run_starts,
                        ordinals[run_starts[:-1]])
        account = active_account()
        if account is not None:
            # Payloads of a mapped container are zero-copy views; a
            # container handed in as bytes is a copy.
            account.record_column(
                level, scheme, len(payload), column.nbytes, len(ordinals),
                not isinstance(payload, (bytes, bytearray)))
        return column


class LazyColumnarIndex(ColumnarIndex):
    """The `ColumnarIndex` of one columnar container on disk.

    The per-term *framing* is scanned at construction (no payload is
    touched); a term's payload is parsed on its first touch and its
    columns stay compressed until a query reads them.  One shared
    `IOStats` instrument records every decompression.

    `blob` is the container written by
    `storage.serialize_columnar_index` -- usually as a
    `reliability.io.MappedFile`, in which case every column
    materializes as a zero-copy view over the mapping.  With ``verify``
    ``"lazy"`` (default) or ``"eager"`` a block's checksum is checked on
    the term's first touch, right before its payload is parsed -- a
    query pays for the integrity of the bytes it actually reads;
    ``"off"`` never checks (benchmarking / recovery tooling).  What
    ``"eager"`` adds -- whole-file digests at open -- is
    `repro.diskdb.load_database`'s.

    A failed check raises `DatabaseCorruptError` naming the source file
    and the offending keyword.
    """

    def __init__(self, blob, nodes,
                 tokenizer: Optional[Tokenizer] = None,
                 ranking: Optional[RankingModel] = None,
                 verify: str = "lazy", source: Optional[str] = None,
                 decoded_cache=None):
        if verify not in ("lazy", "eager", "off"):
            raise ValueError(f"unknown verify mode {verify!r}; "
                             "one of ('lazy', 'eager', 'off')")
        # The document's `NodeTable` (a tree is accepted and tabled).
        self.nodes = NodeTable.of(nodes)
        self.tokenizer = tokenizer if tokenizer is not None else Tokenizer()
        self.ranking = ranking if ranking is not None else RankingModel()
        self.io = IOStats()
        self.verify = verify
        self.source = source
        # Shared decoded-column cache (see `cache.DecodedColumnCache`).
        # The namespace keeps keys distinct when one cache serves
        # several indexes (e.g. the shards of one database).
        self._decoded_cache = decoded_cache
        self._cache_ns = source if source else f"idx-{id(self):x}"
        # `blob` may be bytes or a `reliability.io.MappedFile`; holding
        # the backing object here is what keeps the mmap (and every
        # numpy view into it) alive for the index's lifetime.
        self._backing = blob
        self._blob = blob.view if hasattr(blob, "view") else blob
        # Every term's locator, for the index's lifetime; `_postings`
        # holds the terms parsed so far.
        self._algorithm, refs = scan_container(self._blob, file=source)
        self._blocks: Dict[str, BlockRef] = {ref.term: ref for ref in refs}
        self._postings: Dict[str, LazyColumnarPostings] = {}
        self.n_docs = 0

    def _parse_block(self, ref: BlockRef) -> LazyColumnarPostings:
        """Verify (per the mode) and parse one block.

        The payload slice stays a memoryview of the mmap and the
        postings' columns become `np.frombuffer` views -- no bytes copy
        happens here or later.
        """
        if self.verify != "off":
            payload = verify_block(self._blob, ref, self._algorithm,
                                   file=self.source)
        else:
            payload = self._blob[ref.offset: ref.offset + ref.length]
        lengths, scores, level_payloads = parse_payload(
            ref.term, payload, file=self.source)
        return LazyColumnarPostings(
            ref.term, lengths, level_payloads, scores, self.io,
            decoded_cache=self._decoded_cache, cache_ns=self._cache_ns)

    @property
    def vocabulary(self) -> List[str]:
        return sorted(self._blocks)

    def __contains__(self, term: str) -> bool:
        return term in self._blocks

    def term_postings(self, term: str) -> ColumnarPostings:
        existing = self._postings.get(term)
        if existing is not None:
            return existing
        ref = self._blocks.get(term)
        if ref is None:
            return ColumnarPostings(term, [], [])
        # No lock: two threads first-touching one term both parse it
        # (harmless) and `setdefault` makes one of the two the term's
        # postings for good.  `_blocks` never shrinks, so a term is in
        # the vocabulary before, during and after its first touch.
        return self._postings.setdefault(term, self._parse_block(ref))
