"""Per-query resource accounting: what one query actually consumed.

The paper's claim is that top-K evaluation *touches less data* than
complete evaluation; `ResourceAccount` is the instrument that turns
that claim into per-query numbers.  A context-var carries the active
account down the stack, so the deep call sites that do the physical
work -- column decompression (`repro.index.lazydisk`), whole-file
copies (`repro.reliability.io`), decoded-column-cache hits and misses
-- charge the query that caused them without any of those layers
growing a ``stats`` parameter.

`XMLDatabase._complete_results` / `_topk_result` activate an account
around evaluation and fold its totals into the query's
`ExecutionStats` (the new ``bytes_*`` / ``cache_bytes_*`` counters)
plus the full breakdown as ``stats.resources``; the database publishes
the totals as ``repro_query_bytes_*`` / ``repro_query_postings_*``
metrics, the slow log and the daemon's access log attach the breakdown
per record, and the scatter path aggregates per-shard accounts per
request.

Context-vars are per-thread (and per-forked-process), so the daemon's
inline threads and shard workers each account their own queries with no
cross-talk.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Dict, Optional

_ACTIVE: "ContextVar[Optional[ResourceAccount]]" = ContextVar(
    "repro_resource_account", default=None)


class ResourceAccount:
    """Byte- and postings-level consumption of one query.

    Scalar totals (the `ExecutionStats` counter fields):

    * ``bytes_mapped`` -- compressed column payload bytes served from a
      container mmap (zero-copy views; the pages may already be
      resident);
    * ``bytes_copied`` -- payload bytes materialized as ``bytes``
      copies (fault-injected reads, in-memory blobs);
    * ``bytes_decompressed`` -- decoded output bytes across all column
      decompressions;
    * ``postings_bytes_read`` -- compressed payload bytes fed to the
      decoders (mapped + copied column reads);
    * ``columns_decompressed`` -- column decompressions performed;
    * ``cache_bytes_saved`` / ``cache_bytes_paid`` -- decoded column
      bytes a decoded-column-cache hit avoided re-decoding vs. bytes a
      miss paid to populate the cache.

    Breakdowns (the ``resources`` dict): decompressed output bytes per
    codec, postings scanned and compressed bytes per level.
    """

    __slots__ = ("bytes_mapped", "bytes_copied", "bytes_decompressed",
                 "postings_bytes_read", "columns_decompressed",
                 "cache_bytes_saved", "cache_bytes_paid",
                 "decode_cache_hits", "decode_cache_misses",
                 "by_codec", "level_postings", "level_bytes")

    def __init__(self):
        self.bytes_mapped = 0
        self.bytes_copied = 0
        self.bytes_decompressed = 0
        self.postings_bytes_read = 0
        self.columns_decompressed = 0
        self.cache_bytes_saved = 0
        self.cache_bytes_paid = 0
        self.decode_cache_hits = 0
        self.decode_cache_misses = 0
        self.by_codec: Dict[str, int] = {}
        self.level_postings: Dict[int, int] = {}
        self.level_bytes: Dict[int, int] = {}

    # -- charging sites ------------------------------------------------

    def record_column(self, level: int, codec: str, payload_bytes: int,
                      output_bytes: int, postings: int,
                      mapped: bool) -> None:
        """One column decompression: `payload_bytes` compressed input
        (`mapped` when served as a zero-copy view of an mmap),
        `output_bytes` decoded output, `postings` values scanned."""
        self.columns_decompressed += 1
        self.postings_bytes_read += payload_bytes
        if mapped:
            self.bytes_mapped += payload_bytes
        else:
            self.bytes_copied += payload_bytes
        self.bytes_decompressed += output_bytes
        self.by_codec[codec] = self.by_codec.get(codec, 0) + output_bytes
        level = int(level)
        self.level_postings[level] = (self.level_postings.get(level, 0)
                                      + postings)
        self.level_bytes[level] = (self.level_bytes.get(level, 0)
                                   + payload_bytes)

    def record_copy(self, nbytes: int) -> None:
        """A whole-payload ``bytes`` materialization (`read_bytes`)."""
        self.bytes_copied += nbytes

    def record_decode_cache(self, hit: bool, nbytes: int) -> None:
        """Decoded-column-cache attribution: a hit saves re-decoding a
        column whose decoded arrays span `nbytes`, a miss pays that to
        populate the cache.  Bytes go to ``cache_bytes_saved`` /
        ``cache_bytes_paid``, the lookups to the ``decode_cache``
        breakdown."""
        if hit:
            self.cache_bytes_saved += nbytes
            self.decode_cache_hits += 1
        else:
            self.cache_bytes_paid += nbytes
            self.decode_cache_misses += 1

    # -- read-out ------------------------------------------------------

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready breakdown (the ``stats.resources`` payload)."""
        return {
            "bytes_mapped": self.bytes_mapped,
            "bytes_copied": self.bytes_copied,
            "bytes_decompressed": self.bytes_decompressed,
            "postings_bytes_read": self.postings_bytes_read,
            "columns_decompressed": self.columns_decompressed,
            "cache_bytes_saved": self.cache_bytes_saved,
            "cache_bytes_paid": self.cache_bytes_paid,
            "decode_cache": {"hits": self.decode_cache_hits,
                             "misses": self.decode_cache_misses},
            "by_codec": dict(self.by_codec),
            "by_level_postings": {str(k): v for k, v
                                  in sorted(self.level_postings.items())},
            "by_level_bytes": {str(k): v for k, v
                               in sorted(self.level_bytes.items())},
        }


def active_account() -> Optional[ResourceAccount]:
    """The account charged by the current context, or None."""
    return _ACTIVE.get()


@contextmanager
def accounting(account: Optional[ResourceAccount] = None):
    """Activate `account` (a fresh one by default) for the duration.

    Yields the account; nesting replaces the outer account for the
    inner scope (the outer one resumes on exit), so a sub-evaluation
    can be accounted separately without double-charging.
    """
    if account is None:
        account = ResourceAccount()
    token = _ACTIVE.set(account)
    try:
        yield account
    finally:
        _ACTIVE.reset(token)


def fold_into_stats(stats, account: ResourceAccount) -> None:
    """Add `account`'s totals to an `ExecutionStats` and attach the
    full breakdown as ``stats.resources`` (merging with any existing
    breakdown, so shard/batch folds accumulate)."""
    stats.bytes_mapped += account.bytes_mapped
    stats.bytes_copied += account.bytes_copied
    stats.bytes_decompressed += account.bytes_decompressed
    stats.postings_bytes_read += account.postings_bytes_read
    stats.columns_decompressed += account.columns_decompressed
    stats.cache_bytes_saved += account.cache_bytes_saved
    stats.cache_bytes_paid += account.cache_bytes_paid
    stats.resources = merge_resources(stats.resources, account.as_dict())


def merge_resources(into: Optional[Dict[str, Any]],
                    other: Optional[Dict[str, Any]]
                    ) -> Optional[Dict[str, Any]]:
    """Recursively sum two ``as_dict`` breakdowns (batch / scatter
    aggregation).  Either side may be None; returns a new dict (or the
    surviving side unchanged when one is None)."""
    if not other:
        return into
    if not into:
        return dict(other)
    out: Dict[str, Any] = dict(into)
    for key, value in other.items():
        if isinstance(value, dict):
            out[key] = merge_resources(out.get(key), value)
        elif isinstance(value, (int, float)):
            out[key] = out.get(key, 0) + value
        else:
            out.setdefault(key, value)
    return out

