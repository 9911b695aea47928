"""Low-overhead span tracing for the query pipeline.

A `Tracer` records a tree of `Span`s -- named, monotonic-clock-timed
regions with free-form tags -- per query: parse, postings fetch, each
level's join (tagged with the section III-C plan choice and the
input/output cardinalities), semantic check + scoring, erasure, and
top-K termination.  Instrumented code holds no tracer: it opens its
regions with the module-level `span`, which records on whichever
`Tracer` has a root span open on the calling thread -- so a region
inside an index object every query shares (the disk index's column
decode) lands in the tree of the query that paid for it -- and is a
shared no-op otherwise.  The default everywhere is `NULL_TRACER`, so a
default query pays one thread-local read and two no-op calls per region
and only ever reaches O(levels) regions, never O(candidates) (guarded
by ``tests/test_observability.py``).

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

The span tree is also the only record of where a query's time went:
`phase_totals` folds a finished tree into exclusive milliseconds per
pipeline phase, the table under ``repro trace``.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

# The phases a query's wall time is attributed to, and the span names
# that open them; time under any other span, or under none, is "other".
PHASES = ("parse", "fetch", "decompress", "join", "score", "erase",
          "rank_join", "topk", "other")
_SPAN_PHASE = {"parse": "parse", "postings_fetch": "fetch",
               "decompress": "decompress", "join": "join", "score": "score",
               "erase": "erase", "rank_join": "rank_join",
               "topk_termination": "topk"}

_ACTIVE = threading.local()  # .tracer -> the Tracer with a root open here

#: Finished root spans a `Tracer` retains.
ROOT_CAPACITY = 256


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

    At most `ROOT_CAPACITY` roots are retained (oldest dropped first),
    so a long-lived tracer on a serving database cannot grow without
    bound.
    """

    enabled = True

    def __init__(self):
        self._local = threading.local()
        self._roots: List[Span] = []
        self._lock = threading.Lock()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, **tags: Any) -> Span:
        """Open a span under this thread's innermost open one.  Opening
        a root makes this tracer the thread's ambient one -- what the
        module-level `span` records on -- until that root closes."""
        span = Span(name, tags, self)
        stack = self._stack()
        if stack:
            stack[-1].children.append(span)
        else:
            self._local.outer = getattr(_ACTIVE, "tracer", None)
            _ACTIVE.tracer = self
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
            _ACTIVE.tracer = getattr(self._local, "outer", None)
            with self._lock:
                self._roots.append(span)
                while len(self._roots) > ROOT_CAPACITY:
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


def span(name: str, **tags: Any):
    """Open a span on the thread's ambient tracer (see `Tracer.span`);
    the shared no-op span when no root is open on this thread."""
    tracer = getattr(_ACTIVE, "tracer", None)
    if tracer is None:
        return NULL_SPAN
    return tracer.span(name, **tags)


def _fields(node: Union[Span, Dict[str, Any]]):
    """``(name, duration_ms, tags, children)`` of a span in either form.
    The dict form also arrives from log files, so a missing key reads
    as empty instead of raising."""
    if isinstance(node, dict):
        return (node.get("name", "?"), float(node.get("duration_ms", 0.0)),
                node.get("tags", {}), node.get("children", []))
    return node.name, node.duration_ms, node.tags, node.children


def phase_totals(root: Union[Span, Dict[str, Any]]) -> Dict[str, float]:
    """Exclusive milliseconds per phase of a finished span tree.

    Each span's duration minus its children's is charged to the phase
    its name opens (`PHASES`), or to ``other``; the values therefore
    sum to the root's duration.  Takes a `Span` or its `to_dict` form
    (the daemon's stitched traces are dicts).  Children that overlap in
    time -- shards evaluated in parallel under one ``scatter`` span --
    are each charged in full, and the parent's share goes negative by
    the overlap so the sum still holds.
    """
    totals: Dict[str, float] = {}

    def fold(node) -> float:
        name, duration, _tags, children = _fields(node)
        own = duration
        for child in children:
            own -= fold(child)
        phase = _SPAN_PHASE.get(name, "other")
        totals[phase] = totals.get(phase, 0.0) + own
        return duration

    fold(root)
    return totals


# ---------------------------------------------------------------------------
# renderers / exporters
# ---------------------------------------------------------------------------

def render_trace(root: Union[Span, Dict[str, Any]],
                 min_ms: float = 0.0) -> str:
    """A text tree of the span hierarchy with durations and tags, from
    a `Span` or its dict form.

    ``min_ms`` hides spans (and their subtrees) faster than the cutoff
    -- a poor man's flame-graph zoom for deep traces.
    """
    total = _fields(root)[1] or 1e-9
    lines: List[str] = []

    def emit(node, depth: int) -> None:
        name, duration, tags, children = _fields(node)
        if duration < min_ms and depth > 0:
            return
        parts = ", ".join(f"{k}={v}" for k, v in tags.items())
        lines.append(f"{'  ' * depth}{name:<18} {duration:>9.3f} ms  "
                     f"{100.0 * duration / total:>5.1f}%"
                     + (f"  [{parts}]" if parts else ""))
        for child in children:
            emit(child, depth + 1)

    emit(root, 0)
    return "\n".join(lines)


def render_phases(phases: Dict[str, float]) -> str:
    """The per-phase table ``repro trace`` prints under the span tree."""
    total = sum(phases.values()) or 1e-9
    return "\n".join(
        f"{phase:<18} {phases[phase]:>9.3f} ms  "
        f"{100.0 * phases[phase] / total:>5.1f}%"
        for phase in PHASES if phase in phases)


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
