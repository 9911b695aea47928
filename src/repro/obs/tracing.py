"""Low-overhead span tracing for the query pipeline.

A `Tracer` records a tree of `Span`s -- named, monotonic-clock-timed
regions with free-form tags -- per query: parse, postings fetch, each
level's join (tagged with the section III-C plan choice and the
input/output cardinalities), semantic check + scoring, erasure, and
top-K termination.  The default everywhere is `NULL_TRACER`, whose
`span` returns a shared no-op context manager, so instrumented code
pays one attribute lookup and two no-op calls per span when tracing is
off -- the hot path only ever creates O(levels) spans per query, never
O(candidates) (guarded by ``tests/test_observability.py``).

::

    tracer = Tracer()
    with tracer.span("query", terms="xml data"):
        with tracer.span("join", level=3, plan=["merge"]):
            ...
    print(render_trace(tracer.last_root()))
    open("trace.jsonl", "w").write(trace_to_jsonl(tracer.roots()))

Spans are kept on a per-thread stack, so queries evaluated on several
threads at once (the daemon's ``--workers 0`` path) each record one
coherent tree.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Any, Dict, Iterable, List, Optional, Tuple


class Span:
    """One named, timed region of the pipeline (a tree node)."""

    __slots__ = ("name", "tags", "start", "end", "children", "_tracer")

    def __init__(self, name: str, tags: Dict[str, Any], tracer: "Tracer"):
        self.name = name
        self.tags = tags
        self.start = time.perf_counter()
        self.end: Optional[float] = None
        self.children: List["Span"] = []
        self._tracer = tracer

    @property
    def duration_ms(self) -> float:
        end = self.end if self.end is not None else time.perf_counter()
        return (end - self.start) * 1000.0

    def tag(self, **tags: Any) -> "Span":
        """Attach (or overwrite) tags; chainable."""
        self.tags.update(tags)
        return self

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.end = time.perf_counter()
        self._tracer._finish(self)

    def walk(self) -> Iterable["Span"]:
        """The subtree in depth-first pre-order (= recording order)."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> List["Span"]:
        """Every span named `name` in the subtree, in recording order."""
        return [s for s in self.walk() if s.name == name]

    def to_dict(self, origin: Optional[float] = None) -> Dict[str, Any]:
        """Nested dict form (relative timestamps in ms)."""
        origin = self.start if origin is None else origin
        end = self.end if self.end is not None else self.start
        return {
            "name": self.name,
            "start_ms": (self.start - origin) * 1000.0,
            "duration_ms": (end - self.start) * 1000.0,
            "tags": dict(self.tags),
            "children": [c.to_dict(origin) for c in self.children],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Span {self.name} {self.duration_ms:.3f}ms {self.tags}>"


class _NullSpan:
    """The shared do-nothing span returned by `NullTracer.span`."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None

    def tag(self, **tags: Any) -> "_NullSpan":
        return self


NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer: every `span` is the shared no-op span."""

    enabled = False

    def span(self, name: str, **tags: Any) -> _NullSpan:
        return NULL_SPAN

    def roots(self) -> List[Span]:
        return []

    def last_root(self) -> Optional[Span]:
        return None

    def reset(self) -> None:
        return None


NULL_TRACER = NullTracer()


class Tracer:
    """Records span trees; finished root spans accumulate in `roots()`.

    ``capacity`` bounds the retained roots (oldest dropped first), so a
    long-lived tracer on a serving database cannot grow without bound.
    """

    enabled = True

    def __init__(self, capacity: int = 256):
        self.capacity = int(capacity)
        self._local = threading.local()
        self._roots: List[Span] = []
        self._lock = threading.Lock()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, **tags: Any) -> Span:
        span = Span(name, tags, self)
        stack = self._stack()
        if stack:
            stack[-1].children.append(span)
        stack.append(span)
        return span

    def _finish(self, span: Span) -> None:
        stack = self._stack()
        # Close any dangling descendants first (e.g. a generator that was
        # abandoned mid-span), then pop the span itself.
        while stack and stack[-1] is not span:
            dangling = stack.pop()
            if dangling.end is None:
                dangling.end = span.end
        if stack and stack[-1] is span:
            stack.pop()
        if not stack:
            with self._lock:
                self._roots.append(span)
                while len(self._roots) > self.capacity:
                    self._roots.pop(0)

    def roots(self) -> List[Span]:
        """Finished root spans, oldest first."""
        with self._lock:
            return list(self._roots)

    def last_root(self) -> Optional[Span]:
        with self._lock:
            return self._roots[-1] if self._roots else None

    def reset(self) -> None:
        with self._lock:
            self._roots.clear()
        self._local = threading.local()


# ---------------------------------------------------------------------------
# renderers / exporters
# ---------------------------------------------------------------------------

def render_trace(root: Span, min_ms: float = 0.0) -> str:
    """A text tree of the span hierarchy with durations and tags.

    ``min_ms`` hides spans (and their subtrees) faster than the cutoff
    -- a poor man's flame-graph zoom for deep traces.
    """
    total = root.duration_ms or 1e-9
    lines: List[str] = []

    def fmt_tags(tags: Dict[str, Any]) -> str:
        if not tags:
            return ""
        parts = ", ".join(f"{k}={v}" for k, v in tags.items())
        return f"  [{parts}]"

    def emit(span: Span, depth: int) -> None:
        if span.duration_ms < min_ms and depth > 0:
            return
        share = 100.0 * span.duration_ms / total
        lines.append(f"{'  ' * depth}{span.name:<18} "
                     f"{span.duration_ms:>9.3f} ms  {share:>5.1f}%"
                     f"{fmt_tags(span.tags)}")
        for child in span.children:
            emit(child, depth + 1)

    emit(root, 0)
    return "\n".join(lines)


def trace_to_jsonl(roots: Iterable[Span]) -> str:
    """One JSON object per span (flattened, ``id``/``parent_id`` links).

    The classic trace-export shape: every line is independently
    parseable, ids are stable within the export, timestamps are
    milliseconds relative to the first root's start.
    """
    lines: List[str] = []
    next_id = [0]
    roots = list(roots)
    origin = roots[0].start if roots else 0.0

    def emit(span: Span, parent_id: Optional[int]) -> None:
        span_id = next_id[0]
        next_id[0] += 1
        end = span.end if span.end is not None else span.start
        lines.append(json.dumps({
            "id": span_id,
            "parent_id": parent_id,
            "name": span.name,
            "start_ms": (span.start - origin) * 1000.0,
            "duration_ms": (end - span.start) * 1000.0,
            "tags": _jsonable(span.tags),
        }, sort_keys=True))
        for child in span.children:
            emit(child, span_id)

    for root in roots:
        emit(root, None)
    return "\n".join(lines) + ("\n" if lines else "")


def _jsonable(tags: Dict[str, Any]) -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    for key, value in tags.items():
        if isinstance(value, (str, int, float, bool)) or value is None:
            out[key] = value
        elif isinstance(value, (list, tuple)):
            out[key] = [_jsonable({"v": v})["v"] for v in value]
        elif isinstance(value, dict):
            out[key] = _jsonable(value)
        else:
            out[key] = str(value)
    return out


def spans_per_level_plan(root: Span) -> List[Tuple[int, str]]:
    """The per-level join choices recorded in a span tree.

    Walks the tree in recording order collecting ``plan`` tags (the
    section III-C merge/index decisions) from spans that carry both a
    ``level`` and a ``plan`` tag; the result is directly comparable to
    `ExecutionStats.per_level_plan`.
    """
    plan: List[Tuple[int, str]] = []
    for span in root.walk():
        if "level" in span.tags and "plan" in span.tags:
            level = int(span.tags["level"])
            plan.extend((level, algorithm)
                        for algorithm in span.tags["plan"])
    return plan
