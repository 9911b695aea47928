"""In-memory spans around the calls into each layer's public functions.

The program under test is not edited: `install` wraps the listed
functions from the outside for the traced half of a traced run and
`uninstall` puts the originals back.  A span is (layer, name, start, end,
parent, op); a layer's self time is its spans' duration minus the part
their child spans cover.  A hook whose target a refactor removed is
skipped and reported, never fatal.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

# (module, attribute path, layer).  Only calls made O(levels) or O(terms)
# times per query are wrapped; per-tuple calls (cursor pops, score_result,
# scalar eraser probes) would cost more than they measure.
HOOKS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.api", "XMLDatabase.search", "api"),
    ("repro.api", "XMLDatabase.search_topk", "api"),
    ("repro.algorithms.join_based", "JoinBasedSearch.evaluate",
     "algorithms.join_based"),
    ("repro.algorithms.topk_keyword", "TopKKeywordSearch.search",
     "algorithms.topk_keyword"),
    ("repro.planner.plans", "JoinPlanner.intersect_all", "planner"),
    ("repro.planner.plans", "JoinPlanner.intersect", "planner"),
    ("repro.planner.plans", "JoinPlanner.choose", "planner"),
    *(("repro.algorithms.erasure", f"{eraser}.{method}",
       "algorithms.erasure")
      for eraser in ("BitmapEraser", "IntervalEraser", "RoaringEraser")
      for method in ("mark_many", "erased_counts", "free_mask")),
    ("repro.index.columnar", "ColumnarIndex.query_postings",
     "index.columnar"),
    ("repro.index.columnar", "ColumnarIndex.term_postings",
     "index.columnar"),
    ("repro.index.scored", "ScoredPostings.__init__", "index.scored"),
    ("repro.index.lazydisk", "LazyColumnarIndex.query_postings",
     "index.lazydisk"),
    ("repro.index.lazydisk", "LazyColumnarIndex.term_postings",
     "index.lazydisk"),
    ("repro.index.lazydisk", "LazyColumnarPostings.column",
     "index.lazydisk"),
    ("repro.index.compression", "decompress_column", "index.compression"),
    ("repro.index.compression", "choose_codec", "index.compression"),
    ("repro.index.storage", "serialize_columnar_index_v4", "index.storage"),
    ("repro.index.storage", "serialize_columnar_index_v3", "index.storage"),
    ("repro.index.storage", "serialize_inverted_index_blocked",
     "index.storage"),
    ("repro.index.storage", "deserialize_inverted_index_blocked",
     "index.storage"),
    ("repro.index.storage", "scan_v4_container", "index.storage"),
    ("repro.index.storage", "scan_v3_container", "index.storage"),
    ("repro.index.storage", "verify_block", "reliability.checksum"),
    ("repro.reliability.checksum", "hex_digest", "reliability.checksum"),
    ("repro.reliability.checksum", "verify", "reliability.checksum"),
    ("repro.cache", "QueryCache.query_postings", "cache"),
    ("repro.cache", "QueryCache.get_results", "cache"),
    ("repro.cache", "QueryCache.put_results", "cache"),
    ("repro.cache", "DecodedColumnCache.get", "cache"),
    ("repro.cache", "DecodedColumnCache.put", "cache"),
    ("repro.algorithms.base", "sort_by_score", "scoring"),
    ("repro.xmltree.parser", "parse_xml", "xmltree"),
    ("repro.index.inverted", "InvertedIndex.from_lists", "index.inverted"),
    ("repro.diskdb", "load_database", "diskdb"),
    ("repro.diskdb", "save_database", "diskdb"),
    ("repro.serve.merge", "ShardedDatabase.search", "serve.merge"),
    ("repro.serve.merge", "ShardedDatabase.search_topk", "serve.merge"),
)

MAX_DUMPED_SPANS = 100_000


class SpanLog:
    """Every span of one traced run, kept in memory until `dump`."""

    def __init__(self):
        self.rows: List[Optional[tuple]] = []
        self.stack: List[int] = []
        self.op = 0
        self.enabled = False
        self.skipped: List[str] = []
        self._undo: List[Callable[[], None]] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, fn: Callable, layer: str, name: str) -> Callable:
        rows, stack, clock = self.rows, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            sid = len(rows)
            rows.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                rows[sid] = (layer, name, start, end, parent, self.op)

        traced.__wrapped__ = fn
        return traced

    def operation(self, fn: Callable[[], object], name: str):
        """Run one benchmark operation as the root span of a new op id."""
        self.op += 1
        return self.wrap(fn, "bench", name)()

    def add(self, layer: str, name: str, start: float, end: float,
            parent: int = -1) -> int:
        """Record a span measured elsewhere (the served path's client)."""
        self.rows.append((layer, name, start, end, parent, self.op))
        return len(self.rows) - 1

    # -- hooks -------------------------------------------------------------

    def install(self) -> None:
        for module_name, path, layer in HOOKS:
            try:
                module = importlib.import_module(module_name)
                owner = module
                *parents, leaf = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = owner.__dict__[leaf] if parents \
                    else getattr(owner, leaf)
            except (ImportError, AttributeError, KeyError) as exc:
                self.skipped.append(f"{module_name}.{path}: {exc!r}")
                continue
            if isinstance(original, (classmethod, staticmethod)):
                wrapper = type(original)(
                    self.wrap(original.__func__, layer, path))
            else:
                wrapper = self.wrap(original, layer, path)
            if parents:
                setattr(owner, leaf, wrapper)
                self._undo.append(
                    lambda o=owner, n=leaf, f=original: setattr(o, n, f))
            else:
                self._replace_everywhere(original, wrapper)

    def _replace_everywhere(self, original, wrapper) -> None:
        """A module-level function is bound by name wherever it was
        imported, and sometimes stored in a dispatch dict."""
        for module in list(sys.modules.values()):
            if module is None or \
                    not getattr(module, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    self._undo.append(
                        lambda m=module, k=key: setattr(m, k, original))
                elif isinstance(value, dict):
                    for dkey, dvalue in list(value.items()):
                        if dvalue is original:
                            value[dkey] = wrapper
                            self._undo.append(
                                lambda d=value, k=dkey:
                                d.__setitem__(k, original))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    @contextlib.contextmanager
    def recording(self):
        """Hooks installed and spans recorded for the body, then the
        program put back as it was."""
        self.install()
        self.enabled = True
        try:
            yield self
        finally:
            self.enabled = False
            self.uninstall()

    # -- aggregation -------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Self seconds per layer: each span's duration minus the part its
        child spans cover."""
        child = [0.0] * len(self.rows)
        for row in self.rows:
            if row is not None and row[4] >= 0:
                child[row[4]] += row[3] - row[2]
        by_layer: Dict[str, float] = {}
        for sid, row in enumerate(self.rows):
            if row is None:
                continue
            own = max(0.0, (row[3] - row[2]) - child[sid])
            by_layer[row[0]] = by_layer.get(row[0], 0.0) + own
        return by_layer

    def durations(self, layer: str, prefix: str) -> List[float]:
        """Seconds of every span of `layer` whose name starts with, or
        whose last path part starts with, `prefix`."""
        return [r[3] - r[2] for r in self.rows
                if r is not None and r[0] == layer
                and r[1].rsplit(".", 1)[-1].startswith(prefix)]

    def inclusive_by_op(self, layer: str) -> Dict[str, Tuple[float, int]]:
        """Per root-span name: (seconds inside `layer`, operations).
        A span nested in another span of the same layer is not counted
        twice."""
        rows = self.rows
        op_name = {r[5]: r[1] for r in rows
                   if r is not None and r[0] == "bench"}
        out: Dict[str, List[float]] = {}
        for name in op_name.values():
            out.setdefault(name, [0.0, 0])[1] += 1
        for row in rows:
            if row is None or row[0] != layer or row[5] not in op_name:
                continue
            parent = rows[row[4]] if row[4] >= 0 else None
            if parent is not None and parent[0] == layer:
                continue
            out[op_name[row[5]]][0] += row[3] - row[2]
        return {name: (v[0], v[1]) for name, v in out.items()}

    def dump(self, path: str) -> int:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        written = 0
        with open(path, "w", encoding="utf-8") as handle:
            for sid, row in enumerate(self.rows):
                if row is None:
                    continue
                if written >= MAX_DUMPED_SPANS:
                    break
                handle.write(json.dumps({
                    "id": sid, "layer": row[0], "name": row[1],
                    "start": row[2], "end": row[3], "parent": row[4],
                    "op": row[5]}) + "\n")
                written += 1
        return written
