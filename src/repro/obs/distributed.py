"""Distributed tracing for the sharded serve path (`docs/OBSERVABILITY.md`).

The PR-2 `Tracer` records span trees inside one process; this module
carries them *across* the daemon's process boundaries and stitches the
pieces back into one request-scoped trace:

* `TraceContext` -- the wire-format trace context (``trace_id``, parent
  span id, sampling decision) that travels alongside the
  `Deadline.to_wire` envelope into every shard worker;
* span trees cross the boundary as the plain-dict form of
  `Span.to_dict` (relative-millisecond timestamps, so a clock-domain
  change between processes cannot skew them) and `stitch_trace` grafts
  each shard's tree under the daemon's scatter span;
* `TailSampler` makes the retention decision *after* the request
  finished -- tail-based sampling: slow, error and shed requests are
  always kept, the healthy fast majority is downsampled;
* `TraceStore` is the bounded in-memory ring behind ``/debug/traces``
  (optionally mirrored to a JSONL file that ``repro trace --from-log``
  renders);
* `AccessLog` is the per-request structured JSONL log: one line per
  request with trace id, status, queue wait, per-shard latency
  breakdown and outcome -- the greppable record that links a p99
  exemplar back to what actually happened.

Stitched traces are nested dicts (the `Span.to_dict` shape plus
provenance tags), not `Span` objects: the daemon handles many requests
concurrently on one event-loop thread, so the thread-local span stack
of a live `Tracer` cannot hold them apart -- assembling dicts from
measured timing facts keeps concurrent requests' traces independent by
construction.
"""

from __future__ import annotations

import json
import os
import random
import threading
import time
from collections import OrderedDict, deque
from typing import Any, Deque, Dict, Iterable, List, Optional, Sequence

from .tracing import Span, _jsonable, render_trace

#: Bumped when the wire shape of contexts or span trees changes; a
#: worker from a different version refuses to guess.
TRACE_WIRE_VERSION = 1


def new_trace_id() -> str:
    """A 16-hex-digit request-unique trace id."""
    return os.urandom(8).hex()


class TraceContext:
    """What identifies a request across process hops.

    ``trace_id`` names the whole request; ``parent_span`` names the
    daemon-side span a remote tree should hang under; ``sampled`` is
    the *head* decision ("collect spans at all"), distinct from the
    tail retention decision `TailSampler` makes after the outcome is
    known.  The wire form is a small JSON-safe dict, shipped in the
    same payload tuple as the deadline envelope.
    """

    __slots__ = ("trace_id", "parent_span", "sampled")

    def __init__(self, trace_id: Optional[str] = None,
                 parent_span: str = "request", sampled: bool = True):
        self.trace_id = trace_id if trace_id is not None else new_trace_id()
        self.parent_span = parent_span
        self.sampled = bool(sampled)

    def child(self, parent_span: str) -> "TraceContext":
        """The same trace, re-parented for the next hop."""
        return TraceContext(self.trace_id, parent_span, self.sampled)

    def to_wire(self) -> Dict[str, Any]:
        return {"v": TRACE_WIRE_VERSION, "trace_id": self.trace_id,
                "parent_span": self.parent_span, "sampled": self.sampled}

    @classmethod
    def from_wire(cls, wire: Optional[Dict[str, Any]]
                  ) -> Optional["TraceContext"]:
        """Rebuild a context; None (or a future version) disables
        collection rather than guessing at an unknown shape."""
        if not wire or wire.get("v") != TRACE_WIRE_VERSION:
            return None
        return cls(wire.get("trace_id"), wire.get("parent_span", "request"),
                   wire.get("sampled", True))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<TraceContext {self.trace_id} parent={self.parent_span} "
                f"sampled={self.sampled}>")


# ---------------------------------------------------------------------------
# dict-form spans: construction, grafting, rendering
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


def span_to_wire(span: Span) -> Dict[str, Any]:
    """A local `Span` tree as its wire (dict) form -- timestamps
    relative to the tree's own root, so the receiving clock domain is
    irrelevant."""
    return span.to_dict()


def shift_span(span: Dict[str, Any], offset_ms: float) -> Dict[str, Any]:
    """The span tree with every ``start_ms`` moved by ``offset_ms`` --
    how a remote tree (relative to its own start) is placed onto the
    stitched request timeline."""
    return {
        "name": span.get("name", "?"),
        "start_ms": float(span.get("start_ms", 0.0)) + offset_ms,
        "duration_ms": float(span.get("duration_ms", 0.0)),
        "tags": dict(span.get("tags", {})),
        "children": [shift_span(c, offset_ms)
                     for c in span.get("children", [])],
    }


def stitch_trace(trace_id: str, endpoint: str, terms: Sequence[str],
                 semantics: str, k: Optional[int], status: int,
                 outcome: str, elapsed_ms: float, queue_wait_ms: float,
                 shards: Sequence[Dict[str, Any]] = (),
                 scatter_ms: Optional[float] = None,
                 merge_ms: float = 0.0, cached: bool = False,
                 wall_time: float = 0.0,
                 extra_tags: Optional[Dict[str, Any]] = None
                 ) -> Dict[str, Any]:
    """Fold daemon timing facts + per-shard span trees into one trace.

    ``shards`` entries are the per-shard outcome dicts the scatter
    collected: ``{"shard", "elapsed_ms", "partial", "bound",
    "retrievals", "emitted", "trace"}`` where ``trace`` is the worker's
    wire span tree (or None on the inline path).  The stitched shape::

        request
          queue_wait
          scatter            (pool or inline evaluation)
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
            grafted = [shift_span(sub, 0.0)] if sub else []
            shard_children.append(make_span(
                "shard", cursor, float(info.get("elapsed_ms", 0.0)),
                tags, grafted))
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
    root = make_span("request", 0.0, elapsed_ms, tags, children)
    return {"trace_id": trace_id, "status": int(status),
            "outcome": outcome, "elapsed_ms": float(elapsed_ms),
            "wall_time": float(wall_time), "root": root}


def render_stitched(trace: Dict[str, Any], min_ms: float = 0.0) -> str:
    """Text tree of a stitched trace: `render_trace` over its root."""
    return render_trace(trace.get("root", trace), min_ms)


def count_spans(trace: Dict[str, Any], name: Optional[str] = None) -> int:
    """Spans in a stitched trace, optionally only those named `name`."""
    root = trace.get("root", trace)

    def walk(span: Dict[str, Any]) -> int:
        own = 1 if name is None or span.get("name") == name else 0
        return own + sum(walk(c) for c in span.get("children", []))

    return walk(root)


# ---------------------------------------------------------------------------
# tail-based sampling and retention
# ---------------------------------------------------------------------------

class TailSampler:
    """Keep-or-drop decided *after* the request outcome is known.

    The whole point of tail sampling: the traces worth money are the
    outliers, and you only know a request was an outlier once it is
    over.  Slow (>= ``slow_ms``), error (5xx), shed (429), timed-out
    (504) and partial requests are always retained; the healthy fast
    majority is downsampled at ``sample_rate`` (seeded RNG, so a test
    run retains a reproducible subset).
    """

    ALWAYS_KEEP_OUTCOMES = frozenset(
        {"error", "shed", "deadline", "partial"})

    def __init__(self, slow_ms: float = 250.0, sample_rate: float = 1.0,
                 seed: int = 0xACE5):
        self.slow_ms = float(slow_ms)
        self.sample_rate = min(1.0, max(0.0, float(sample_rate)))
        self._rng = random.Random(seed)
        self._lock = threading.Lock()

    def keep(self, status: int, outcome: str, elapsed_ms: float) -> bool:
        if status >= 400 or outcome in self.ALWAYS_KEEP_OUTCOMES:
            return True
        if elapsed_ms >= self.slow_ms:
            return True
        if self.sample_rate >= 1.0:
            return True
        with self._lock:
            return self._rng.random() < self.sample_rate


class TraceStore:
    """Bounded trace_id -> stitched-trace ring behind ``/debug/traces``.

    ``path`` mirrors every retained trace to a JSONL file (one trace
    per line) so a long-lived daemon leaves a trail `repro trace
    --from-log` can render after the ring has rolled over.
    """

    def __init__(self, capacity: int = 256, path: Optional[str] = None):
        self.capacity = max(1, int(capacity))
        self.path = path
        self._traces: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self._lock = threading.Lock()
        self.added = 0
        self.dropped = 0

    def add(self, trace: Dict[str, Any]) -> None:
        with self._lock:
            self._traces[trace["trace_id"]] = trace
            self.added += 1
            while len(self._traces) > self.capacity:
                self._traces.popitem(last=False)
                self.dropped += 1
            if self.path is not None:
                with open(self.path, "a", encoding="utf-8") as handle:
                    handle.write(json.dumps(trace, sort_keys=True) + "\n")

    def get(self, trace_id: str) -> Optional[Dict[str, Any]]:
        with self._lock:
            return self._traces.get(trace_id)

    def traces(self) -> List[Dict[str, Any]]:
        """Retained traces, oldest first."""
        with self._lock:
            return list(self._traces.values())

    def summaries(self, limit: Optional[int] = None) -> List[Dict[str, Any]]:
        """Newest-first id/status/latency lines for the list endpoint."""
        with self._lock:
            items = list(self._traces.values())
        items.reverse()
        if limit is not None:
            items = items[:limit]
        out = []
        for trace in items:
            root = trace.get("root", {})
            tags = root.get("tags", {})
            out.append({
                "trace_id": trace["trace_id"],
                "status": trace.get("status"),
                "outcome": trace.get("outcome"),
                "elapsed_ms": trace.get("elapsed_ms"),
                "endpoint": tags.get("endpoint"),
                "terms": tags.get("terms"),
                "shards": count_spans(trace, "shard"),
                "wall_time": trace.get("wall_time"),
            })
        return out

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)


# ---------------------------------------------------------------------------
# structured access log
# ---------------------------------------------------------------------------

class AccessLog:
    """One structured record per request, ring-buffered + optional JSONL.

    The record schema (all keys always present, so downstream `jq` and
    the offline SLO builder never branch on shape)::

        {"wall_time", "trace_id", "endpoint", "terms", "semantics",
         "k", "status", "outcome", "cached", "queue_wait_ms",
         "elapsed_ms", "result_count", "partial", "bound",
         "degraded", "chaos",
         "shards": [{"shard", "elapsed_ms", "retrievals", "emitted",
                     "partial"}]}

    ``degraded`` marks 200s served from a reduced shard set (with a
    conservative bound); ``chaos`` lists the fault kinds the chaos
    harness injected into the request, when any.

    Every request that reached query handling is logged -- including
    shed 429s and timed-out 504s, whose records carry their status and
    empty shard breakdowns.
    """

    FIELDS = ("wall_time", "trace_id", "endpoint", "terms", "semantics",
              "k", "status", "outcome", "cached", "queue_wait_ms",
              "elapsed_ms", "result_count", "partial", "bound",
              "degraded", "chaos", "account", "shards")

    def __init__(self, capacity: int = 1024, path: Optional[str] = None):
        self.path = path
        self._records: Deque[Dict[str, Any]] = deque(maxlen=int(capacity))
        self._lock = threading.Lock()
        self.written = 0

    def record(self, **entry: Any) -> Dict[str, Any]:
        full = {field: entry.get(field) for field in self.FIELDS}
        full["terms"] = list(full.get("terms") or [])
        full["shards"] = list(full.get("shards") or [])
        with self._lock:
            self._records.append(full)
            self.written += 1
            if self.path is not None:
                with open(self.path, "a", encoding="utf-8") as handle:
                    handle.write(json.dumps(_jsonable(full),
                                            sort_keys=True) + "\n")
        return full

    def records(self) -> List[Dict[str, Any]]:
        with self._lock:
            return list(self._records)

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
    """One human-readable access-log line."""
    wall = record.get("wall_time")
    stamp = (time.strftime("%H:%M:%S", time.localtime(wall))
             if wall else "--:--:--")
    shards = record.get("shards") or []
    shard_bits = " ".join(
        f"s{s.get('shard')}={s.get('elapsed_ms', 0):.1f}ms"
        f"/{s.get('retrievals', 0)}r" for s in shards)
    k = record.get("k")
    return (f"{stamp} {record.get('status')} {record.get('outcome'):<9} "
            f"{record.get('endpoint') or '?':<7} "
            f"trace={record.get('trace_id')} "
            f"q={' '.join(record.get('terms') or [])!r}"
            f"{f' k={k}' if k is not None else ''} "
            f"wait={record.get('queue_wait_ms') or 0:.1f}ms "
            f"total={record.get('elapsed_ms') or 0:.1f}ms "
            f"results={record.get('result_count')}"
            f"{' partial' if record.get('partial') else ''}"
            f"{' cached' if record.get('cached') else ''}"
            f"{'  [' + shard_bits + ']' if shard_bits else ''}")
