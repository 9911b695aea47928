"""Distributed tracing for the sharded serve path (`docs/OBSERVABILITY.md`).

The `Tracer` records span trees inside one process; this module stitches
the pieces of one served request back together and keeps one record of
it:

* a request's trace id travels to every shard worker in the same
  payload tuple as the `Deadline.to_wire` envelope, and each worker's
  span tree comes back in the plain-dict form of `Span.to_dict`
  (relative-millisecond timestamps, so a clock-domain change between
  processes cannot skew them); `stitch_trace` grafts each one under the
  daemon's scatter span;
* `AccessLog` keeps one record per request -- trace id, status, queue
  wait, per-shard latency breakdown, outcome and ``root``, the stitched
  span tree -- in the bounded ring behind ``/debug/traces``, optionally
  mirrored to the JSONL file that ``repro trace --from-log`` renders.

Stitched traces are nested dicts (the `Span.to_dict` shape plus
provenance tags), not `Span` objects: the daemon handles many requests
concurrently on one event-loop thread, so the thread-local span stack
of a live `Tracer` cannot hold them apart -- assembling dicts from
measured timing facts keeps concurrent requests' traces independent by
construction.
"""

from __future__ import annotations

import json
import threading
import time
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Sequence

from .tracing import _jsonable

#: Requests the daemon keeps in memory (a ``--access-log`` file keeps
#: every one).
TRACE_CAPACITY = 256


# ---------------------------------------------------------------------------
# dict-form spans: construction and stitching
# ---------------------------------------------------------------------------

def make_span(name: str, start_ms: float = 0.0, duration_ms: float = 0.0,
              tags: Optional[Dict[str, Any]] = None,
              children: Optional[List[Dict[str, Any]]] = None
              ) -> Dict[str, Any]:
    """One dict-form span (the `Span.to_dict` shape)."""
    return {"name": name, "start_ms": float(start_ms),
            "duration_ms": float(duration_ms),
            "tags": _jsonable(tags or {}),
            "children": list(children or [])}


def stitch_trace(trace_id: str, endpoint: str, terms: Sequence[str],
                 semantics: str, k: Optional[int], status: int,
                 outcome: str, elapsed_ms: float, queue_wait_ms: float,
                 shards: Sequence[Dict[str, Any]] = (),
                 scatter_ms: Optional[float] = None,
                 merge_ms: float = 0.0, cached: bool = False,
                 extra_tags: Optional[Dict[str, Any]] = None
                 ) -> Dict[str, Any]:
    """Fold daemon timing facts + per-shard span trees into the
    request's root span.

    ``shards`` entries are the per-shard outcome dicts the scatter
    collected: ``{"shard", "elapsed_ms", "partial", "bound",
    "retrievals", "emitted", "trace"}`` where ``trace`` is the worker's
    span tree (None when the shard never answered), grafted as it is.
    The stitched shape::

        request
          queue_wait
          scatter            one supervised call per qualifying shard
            shard (xN)       tagged shard id, latency, retrievals
              <worker tree>  postings_fetch / rank_join / ...
          merge              rehydrate + k-way merge + root graft

    Every request gets exactly one stitched trace whatever its fate --
    a cache hit, a shed 429 and a 504 stitch to a request span with the
    outcome tagged and no scatter children.
    """
    children: List[Dict[str, Any]] = []
    cursor = 0.0
    if queue_wait_ms > 0.0 or not cached:
        children.append(make_span("queue_wait", 0.0, queue_wait_ms))
        cursor = queue_wait_ms
    if cached:
        children.append(make_span("cache_hit", cursor,
                                  max(0.0, elapsed_ms - cursor)))
    elif status == 200 or shards:
        if scatter_ms is None:
            scatter_ms = max(0.0, elapsed_ms - cursor - merge_ms)
        shard_children = []
        for info in shards:
            tags = {key: info.get(key) for key in
                    ("shard", "partial", "bound", "retrievals", "emitted")
                    if info.get(key) is not None}
            tags["elapsed_ms"] = info.get("elapsed_ms", 0.0)
            sub = info.get("trace")
            shard_children.append(make_span(
                "shard", cursor, float(info.get("elapsed_ms", 0.0)),
                tags, [sub] if sub else []))
        children.append(make_span("scatter", cursor, scatter_ms, {},
                                  shard_children))
        cursor += scatter_ms
        if merge_ms > 0.0:
            children.append(make_span("merge", cursor, merge_ms))
    tags: Dict[str, Any] = {
        "trace_id": trace_id, "endpoint": endpoint,
        "terms": list(terms), "semantics": semantics,
        "status": status, "outcome": outcome, "cached": cached,
    }
    if k is not None:
        tags["k"] = k
    if extra_tags:
        tags.update(extra_tags)
    return make_span("request", 0.0, elapsed_ms, tags, children)


# ---------------------------------------------------------------------------
# the request record
# ---------------------------------------------------------------------------

class AccessLog:
    """One record per request: a bounded, thread-safe ``trace_id`` ->
    record ring behind ``/debug/traces``, optionally mirrored to JSONL.

    The record schema (all keys always present, so downstream `jq` and
    ``repro trace --from-log`` never branch on shape)::

        {"wall_time", "trace_id", "endpoint", "terms", "semantics",
         "k", "status", "outcome", "cached", "queue_wait_ms",
         "elapsed_ms", "result_count", "partial", "bound",
         "degraded", "account",
         "shards": [{"shard", "elapsed_ms", "retrievals", "emitted",
                     "partial"}],
         "root"}

    ``degraded`` marks 200s served from a reduced shard set (with a
    conservative bound); ``account`` is the request's merged
    `ResourceAccount` breakdown, when it evaluated anything; ``root``
    is the stitched span tree (`stitch_trace`).

    Every request that reached query handling is recorded -- including
    shed 429s and timed-out 504s, whose records carry their status and
    empty shard breakdowns.  ``path`` appends every record to a JSONL
    file, so a long-lived daemon leaves a trail after the ring has
    rolled over: the daemon's ``start`` opens it (`open`) and its
    ``stop`` closes it; each record is one flushed ``write``, so a live
    ``repro trace --from-log`` sees it at once.
    """

    FIELDS = ("wall_time", "trace_id", "endpoint", "terms", "semantics",
              "k", "status", "outcome", "cached", "queue_wait_ms",
              "elapsed_ms", "result_count", "partial", "bound",
              "degraded", "account", "shards", "root")

    def __init__(self, capacity: int = TRACE_CAPACITY,
                 path: Optional[str] = None):
        self.capacity = max(1, int(capacity))
        self.path = path
        self._file = None
        self._records: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self._lock = threading.Lock()
        self.added = 0
        self.dropped = 0

    def record(self, **entry: Any) -> Dict[str, Any]:
        full = {field: entry.get(field) for field in self.FIELDS}
        full["terms"] = list(full["terms"] or [])
        full["shards"] = list(full["shards"] or [])
        line = (json.dumps(_jsonable(full), sort_keys=True) + "\n"
                if self._file is not None else None)
        with self._lock:
            self._records[full["trace_id"]] = full
            self.added += 1
            while len(self._records) > self.capacity:
                self._records.popitem(last=False)
                self.dropped += 1
            if line is not None and self._file is not None:
                self._file.write(line)
                self._file.flush()
        return full

    def open(self) -> None:
        """Open the JSONL file for appending, when there is one."""
        with self._lock:
            if self.path is not None and self._file is None:
                self._file = open(self.path, "a", encoding="utf-8")

    def close(self) -> None:
        """Close the JSONL file; later records stay in the ring only."""
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None

    def get(self, trace_id: str) -> Optional[Dict[str, Any]]:
        with self._lock:
            return self._records.get(trace_id)

    def records(self) -> List[Dict[str, Any]]:
        """Retained records, oldest first."""
        with self._lock:
            return list(self._records.values())

    def summaries(self, limit: Optional[int] = None) -> List[Dict[str, Any]]:
        """Newest-first id/status/latency lines for the list endpoint."""
        items = self.records()
        items.reverse()
        return [{"trace_id": record["trace_id"],
                 "status": record["status"],
                 "outcome": record["outcome"],
                 "elapsed_ms": record["elapsed_ms"],
                 "endpoint": record["endpoint"],
                 "terms": record["terms"],
                 "shards": len(record["shards"]),
                 "wall_time": record["wall_time"]}
                for record in items[:limit]]

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)


def read_jsonl(path: str) -> List[Dict[str, Any]]:
    """Parse a JSONL file leniently: malformed lines are skipped (a
    line truncated by a dying daemon must not make the log unreadable)."""
    out: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(entry, dict):
                out.append(entry)
    return out


def format_access_record(record: Dict[str, Any]) -> str:
    """One human-readable access-log line.  The record comes from a
    file, so a missing or null field reads as empty (numbers as 0)."""
    wall = record.get("wall_time")
    stamp = (time.strftime("%H:%M:%S", time.localtime(wall))
             if wall else "--:--:--")
    shard_bits = " ".join(
        f"s{s.get('shard')}={s.get('elapsed_ms') or 0:.1f}ms"
        f"/{s.get('retrievals') or 0}r" for s in record.get("shards") or [])
    k = record.get("k")
    return (f"{stamp} {record.get('status') or ''} "
            f"{record.get('outcome') or '':<9} "
            f"{record.get('endpoint') or '?':<7} "
            f"trace={record.get('trace_id') or ''} "
            f"q={' '.join(record.get('terms') or [])!r}"
            f"{f' k={k}' if k is not None else ''} "
            f"wait={record.get('queue_wait_ms') or 0:.1f}ms "
            f"total={record.get('elapsed_ms') or 0:.1f}ms "
            f"results={record.get('result_count') or 0}"
            f"{' partial' if record.get('partial') else ''}"
            f"{' cached' if record.get('cached') else ''}"
            f"{'  [' + shard_bits + ']' if shard_bits else ''}")
