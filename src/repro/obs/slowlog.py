"""Slow-query log: capture the outliers with enough context to diagnose.

A `SlowQueryLog` keeps a bounded ring of `SlowQueryRecord`s for every
query whose wall time crosses the threshold: the normalized terms, the
semantics/algorithm/k, the `ExecutionStats` counters, the query's span
tree and the per-phase breakdown folded from it (`phase_totals`).
`XMLDatabase` runs every query of a database that has a slow log under
a live `Tracer`, so its records always carry both.  With ``path`` set,
records are also appended to a JSONL file as they happen, so a
long-running server leaves a greppable trail.

::

    log = SlowQueryLog(threshold_ms=50, path="slow.jsonl")
    db = XMLDatabase.from_tree(tree, slow_log=log)
    ...
    for record in log.records():
        print(record.elapsed_ms, record.terms)
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Union

from .tracing import Span, _jsonable, phase_totals


@dataclass
class SlowQueryRecord:
    """One over-threshold query with its diagnostic context."""

    terms: List[str]
    semantics: str
    algorithm: str
    k: Optional[int]
    elapsed_ms: float
    stats: Dict[str, Any] = field(default_factory=dict)
    trace: Optional[Dict[str, Any]] = None
    wall_time: float = 0.0  # time.time() at record, for log correlation
    # Exclusive per-phase milliseconds: `phase_totals(trace)`, present
    # whenever `trace` is.
    phases: Optional[Dict[str, float]] = None

    def as_dict(self) -> Dict[str, Any]:
        return {
            "terms": list(self.terms),
            "semantics": self.semantics,
            "algorithm": self.algorithm,
            "k": self.k,
            "elapsed_ms": self.elapsed_ms,
            "stats": _jsonable(self.stats),
            "trace": self.trace,
            "wall_time": self.wall_time,
            "phases": self.phases,
        }


class SlowQueryLog:
    """Bounded, thread-safe ring of slow-query records.

    Parameters
    ----------
    threshold_ms:
        Queries at or above this wall time are recorded.
    capacity:
        Ring size; the oldest record is dropped when full.
    path:
        Optional JSONL file every record is appended to.
    """

    def __init__(self, threshold_ms: float = 100.0, capacity: int = 128,
                 path: Optional[str] = None):
        self.threshold_ms = float(threshold_ms)
        self.path = path
        self._records: Deque[SlowQueryRecord] = deque(maxlen=int(capacity))
        self._lock = threading.Lock()
        self.dropped = 0  # records evicted from the ring

    def maybe_record(self, elapsed_ms: float, terms: List[str],
                     semantics: str, algorithm: str,
                     k: Optional[int] = None,
                     stats: Optional[Dict[str, Any]] = None,
                     trace_root: Union[Span, Dict[str, Any], None] = None
                     ) -> bool:
        """Record the query if it crossed the threshold; True if kept.
        ``trace_root`` is its span tree, as a `Span` or already in dict
        form (the daemon's stitched cross-process traces)."""
        if elapsed_ms < self.threshold_ms:
            return False
        trace = (trace_root.to_dict() if isinstance(trace_root, Span)
                 else trace_root)
        record = SlowQueryRecord(
            terms=list(terms), semantics=semantics, algorithm=algorithm,
            k=k, elapsed_ms=float(elapsed_ms),
            stats=dict(stats) if stats else {},
            trace=trace,
            wall_time=time.time(),
            phases=phase_totals(trace) if trace is not None else None)
        with self._lock:
            if len(self._records) == self._records.maxlen:
                self.dropped += 1
            self._records.append(record)
            if self.path is not None:
                with open(self.path, "a", encoding="utf-8") as handle:
                    handle.write(json.dumps(record.as_dict(),
                                            sort_keys=True) + "\n")
        return True

    def records(self) -> List[SlowQueryRecord]:
        """A copy of the retained records, oldest first."""
        with self._lock:
            return list(self._records)

    def clear(self) -> None:
        with self._lock:
            self._records.clear()
            self.dropped = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)
