"""Workload capture: record what a serving daemon actually answered.

``repro serve --capture PATH`` writes a versioned JSONL workload: one
header line (schema, wall-clock start, daemon shape) followed by one
line per successfully answered query -- terms, semantics, ``k``, the
arrival offset from capture start, the response's **result digest**
(an order-sensitive SHA-1 over the canonical result payload) and the
query's merged `ResourceAccount` breakdown.

The file is the contract between capture and `repro replay`: replay
re-drives the same queries against any database/config and diffs the
digests (did the answers change?), the latencies (did it get slower?)
and the resource accounts (did it touch more data?).  The digest is
computed over the same payload shape the HTTP body carries, so a
capture taken from the daemon and a replay evaluated in-process agree
byte-for-byte when the answers agree.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Bumped when the entry shape changes; replay refuses to guess at an
#: unknown schema instead of silently misreading offsets or digests.
WORKLOAD_SCHEMA = "repro.workload/v1"


def result_digest(results: Sequence[Dict[str, Any]]) -> str:
    """Order-sensitive digest of a result payload list.

    `results` is the wire shape (``{dewey, tag, level, score,
    witnesses}`` dicts).  Canonical JSON (sorted keys, tight
    separators) makes the digest independent of dict insertion order;
    floats serialize via ``repr`` so identical scores digest
    identically across runs.
    """
    canonical = json.dumps(list(results), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha1(canonical.encode("utf-8")).hexdigest()


class WorkloadCapture:
    """Append-only JSONL workload writer (the ``--capture`` sink).

    The daemon's event loop calls `record_digest` inline on the 200 path;
    writes are line-buffered appends behind a lock (the daemon is
    single-threaded, but replay's open-loop driver shares the class).
    The arrival clock starts at the first recorded query, so offsets
    are workload-relative and a capture can be replayed at any time.
    """

    def __init__(self, path: str, meta: Optional[Dict[str, Any]] = None):
        self.path = path
        self.recorded = 0
        self._lock = threading.Lock()
        self._t0: Optional[float] = None
        self._handle = open(path, "w", encoding="utf-8")
        header = {"schema": WORKLOAD_SCHEMA, "created": time.time()}
        if meta:
            header["meta"] = dict(meta)
        self._handle.write(json.dumps(header) + "\n")
        self._handle.flush()

    def record(self, endpoint: str, terms: Sequence[str], semantics: str,
               k: Optional[int], results: Sequence[Dict[str, Any]],
               elapsed_ms: float, cached: bool = False,
               partial: bool = False,
               account: Optional[Dict[str, Any]] = None) -> None:
        """One answered query.  Partial/degraded answers are recorded
        (they happened) but flagged, so replay can skip digest
        comparison for them -- a deadline partial is not reproducible
        by construction."""
        self.record_digest(endpoint, terms, semantics, k,
                           result_digest(results), len(results), elapsed_ms,
                           cached=cached, partial=partial, account=account)

    def record_digest(self, endpoint: str, terms: Sequence[str],
                      semantics: str, k: Optional[int], digest: str,
                      result_count: int, elapsed_ms: float,
                      cached: bool = False, partial: bool = False,
                      account: Optional[Dict[str, Any]] = None) -> None:
        """`record` for an answer whose digest is already known: the
        daemon digests an answer once, when it is first evaluated, and
        its cache hits record that digest again."""
        now = time.perf_counter()
        with self._lock:
            if self._t0 is None:
                self._t0 = now
            entry = {
                "offset_ms": (now - self._t0) * 1000.0,
                "endpoint": endpoint,
                "terms": list(terms),
                "semantics": semantics,
                "k": k,
                "digest": digest,
                "result_count": result_count,
                "elapsed_ms": elapsed_ms,
                "cached": bool(cached),
                "partial": bool(partial),
            }
            if account:
                entry["account"] = account
            self._handle.write(json.dumps(entry) + "\n")
            self._handle.flush()
            self.recorded += 1

    def close(self) -> None:
        with self._lock:
            if not self._handle.closed:
                self._handle.close()


def read_workload(path: str) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """Load a captured workload: ``(header, entries)``.

    Validates the schema line; tolerates a truncated final line (the
    daemon may have been killed mid-write) by dropping it.
    """
    header: Optional[Dict[str, Any]] = None
    entries: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn tail write
            if header is None:
                if record.get("schema") != WORKLOAD_SCHEMA:
                    raise ValueError(
                        f"{path!r} is not a {WORKLOAD_SCHEMA} workload "
                        f"(header schema: {record.get('schema')!r})")
                header = record
            else:
                entries.append(record)
    if header is None:
        raise ValueError(f"{path!r} is empty; expected a "
                         f"{WORKLOAD_SCHEMA} header line")
    return header, entries
