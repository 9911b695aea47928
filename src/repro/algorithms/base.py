"""Shared query/result types and execution statistics.

Every algorithm in this package -- the paper's join-based family and the
three baselines -- consumes a list of query terms and produces
`SearchResult`s, so they are interchangeable behind
`repro.api.XMLDatabase` and directly comparable in the benchmarks.  The
join family never builds them: its answers are the columns of a
`ResultSet` from the level loop to the JSON encoder, and a
`SearchResult` is a view somebody asked that set for.
"""

from __future__ import annotations

from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..xmltree.tree import Node

ELCA = "elca"
SLCA = "slca"
SEMANTICS = (ELCA, SLCA)


def check_semantics(semantics: str) -> str:
    if semantics not in SEMANTICS:
        raise ValueError(
            f"unknown semantics {semantics!r}; expected one of {SEMANTICS}")
    return semantics


@dataclass
class SearchResult:
    """One ELCA/SLCA answer.

    Attributes
    ----------
    node:
        The matched element.
    level:
        Tree level of the node (root = 1).
    score:
        Global ranking score (sum of the best damped per-keyword
        witnesses); 0.0 when the algorithm ran without scoring.
    witness_scores:
        Best damped local score per query keyword, aligned with the
        query's term order.
    """

    node: Node
    level: int
    score: float = 0.0
    witness_scores: Tuple[float, ...] = ()

    @property
    def dewey(self) -> Tuple[int, ...]:
        return self.node.dewey

    def fragment(self, indent: bool = False) -> str:
        """The result subtree serialized as XML -- what a keyword-search
        UI would show the user for this answer."""
        return self.node.to_xml(indent)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        path = ".".join(map(str, self.node.dewey))
        return f"<Result {self.node.tag}@{path} score={self.score:.3f}>"


class ResultSet(SequenceABC):
    """An immutable, array-backed answer list: one entry per result.

    A level plus a JDewey number *is* the node (paper section III-A),
    and a node table row is both, so a result is ``rows[i]`` (the
    node, and its document-order sort key), ``scores[i]`` and
    ``witness[i]`` -- the best damped local score per query keyword, in
    the caller's term order.  Levels, tags and Dewey ids are columns of
    `table`, read in bulk when somebody wants them.

    It is a `Sequence` of `SearchResult`: ``len``, iteration, ``rs[i]``,
    slices (a `ResultSet`) and ``==`` against a list hand out views on
    demand, so callers that want objects get them and callers that want
    order, truncation, the wire or JSON never build one.
    """

    __slots__ = ("table", "rows", "scores", "witness")
    __hash__ = None

    def __init__(self, table, rows: np.ndarray, scores: np.ndarray,
                 witness: np.ndarray):
        self.table = table
        # Read-only views: a result set is immutable, and the caller's
        # own arrays stay as they were.
        self.rows, self.scores, self.witness = columns = (
            rows.view(), scores.view(), witness.view())
        for column in columns:
            column.setflags(write=False)

    # -- constructors --------------------------------------------------

    @classmethod
    def empty(cls, table, n_terms: int) -> "ResultSet":
        """No rows, but still one witness column per query term: an
        empty answer crosses the wire like any other."""
        return cls(table, np.empty(0, dtype=np.int64), np.empty(0),
                   np.empty((0, n_terms)))

    @classmethod
    def of(cls, table, results: Sequence[SearchResult]) -> "ResultSet":
        """`results` as columns (itself when it already is): how the
        baselines' object lists join the one result type."""
        if isinstance(results, cls):
            return results
        results = list(results)
        if not results:
            return cls.empty(table, 0)
        return cls(table,
                   np.array([r.node.row for r in results], dtype=np.int64),
                   np.array([r.score for r in results], dtype=np.float64),
                   np.array([r.witness_scores for r in results],
                            dtype=np.float64).reshape(len(results), -1))

    @classmethod
    def concat(cls, table, parts: Sequence["ResultSet"],
               n_terms: int) -> "ResultSet":
        parts = [p for p in parts if len(p)]
        if len(parts) == 1:
            return parts[0]
        if not parts:
            return cls.empty(table, n_terms)
        return cls(table, np.concatenate([p.rows for p in parts]),
                   np.concatenate([p.scores for p in parts]),
                   np.concatenate([p.witness for p in parts]))

    # -- the wire ------------------------------------------------------

    def to_wire(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """What crosses a process boundary: the arrays, no node graph."""
        return self.rows, self.scores, self.witness

    @classmethod
    def from_wire(cls, table, wire, n_terms: int,
                  shard: Optional[int] = None) -> "ResultSet":
        """Rebuild a shard's reply over the parent's `table`, or raise
        the typed, retryable `ShardPayloadError`.

        One vectorised pass rejects everything a corrupt reply can be:
        not a 3-tuple of arrays, wrong dtype kinds, ragged lengths, a
        witness that is not ``[n, n_terms]``, a non-finite score, a row
        outside the table or at the root's level (the root is rebuilt
        by the merge, never shipped).
        """
        from ..reliability.errors import ShardPayloadError

        def bad(why: str) -> ShardPayloadError:
            return ShardPayloadError(
                f"shard {shard} reply {why}", shard=shard)

        if not isinstance(wire, tuple) or len(wire) != 3:
            raise bad(f"is {type(wire).__name__}, not a "
                      "(rows, scores, witness) tuple")
        if not all(isinstance(a, np.ndarray) for a in wire):
            raise bad("carries a member that is not an array")
        rows, scores, witness = wire
        if rows.dtype.kind != "i" or scores.dtype.kind != "f" \
                or witness.dtype.kind != "f":
            raise bad(f"has dtypes ({rows.dtype}, {scores.dtype}, "
                      f"{witness.dtype}), want (int, float, float)")
        n = rows.size
        if rows.shape != (n,) or scores.shape != (n,) \
                or witness.shape != (n, n_terms):
            raise bad(f"has shapes {rows.shape}, {scores.shape}, "
                      f"{witness.shape}, want n, n, [n, {n_terms}]")
        if not (np.isfinite(scores).all() and np.isfinite(witness).all()):
            raise bad("carries a non-finite score")
        if n and (rows.min() < 1 or rows.max() >= len(table)):
            raise bad("names a row that is no node below the root (row 0)")
        return cls(table, rows, scores, witness)

    def payload(self) -> List[Dict[str, object]]:
        """The JSON rows the daemon sends; Dewey ids and tags come from
        the table in bulk."""
        table, rows = self.table, self.rows
        return [{"dewey": list(dewey), "tag": tag, "level": level,
                 "score": score, "witnesses": witnesses}
                for dewey, tag, level, score, witnesses in zip(
                    table.deweys(rows), table.tags_of(rows),
                    self.levels.tolist(), self.scores.tolist(),
                    self.witness.tolist())]

    # -- columns, order and truncation ---------------------------------

    @property
    def levels(self) -> np.ndarray:
        return self.table.levels_of(self.rows)

    def take(self, index) -> "ResultSet":
        """The entries `index` (positions, a mask or a slice) selects."""
        return ResultSet(self.table, self.rows[index], self.scores[index],
                         self.witness[index])

    def below_root(self) -> "ResultSet":
        """Without the document root: a shard sees only its slice of
        the root's occurrences, so the merge rebuilds that one."""
        return self.take(self.rows > 0)

    def top(self, k: int) -> "ResultSet":
        """``sort_by_score(self)[:k]`` without sorting what the cut
        drops."""
        best = self
        if len(self) > k > 0:
            cut = np.partition(self.scores, -k)[-k]
            best = self.take(self.scores >= cut)
        return sort_by_score(best).take(slice(max(k, 0)))

    # -- the sequence of views -----------------------------------------

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.take(index)
        return next(iter(self.take([index])))

    def __iter__(self) -> Iterator[SearchResult]:
        return (SearchResult(node, level, score, tuple(witness))
                for node, level, score, witness in zip(
                    self.table.nodes(self.rows), self.levels.tolist(),
                    self.scores.tolist(), self.witness.tolist()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, (ResultSet, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(
            mine == theirs for mine, theirs in zip(self, other))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ResultSet n={len(self)}>"


Results = Union[ResultSet, List[SearchResult]]


def sort_by_document_order(results: Results) -> Results:
    """By the nodes' document-order row: the same order as their Dewey
    ids, without building a Dewey id per table-backed result."""
    if isinstance(results, ResultSet):
        return results.take(np.argsort(results.rows, kind="stable"))
    return sorted(results, key=lambda r: r.node.row)


def sort_by_score(results: Results) -> Results:
    """Descending score; document order breaks ties deterministically."""
    if isinstance(results, ResultSet):
        return results.take(np.lexsort((results.rows, -results.scores)))
    return sorted(results, key=lambda r: (-r.score, r.node.row))


@dataclass
class ExecutionStats:
    """Work counters, the scale-free complement of wall-clock numbers.

    The benchmarks report these next to the timings so the *shape* claims
    of the paper (which algorithm touches less data where) can be checked
    independently of Python constant factors.
    """

    levels_processed: int = 0
    joins: int = 0
    merge_joins: int = 0
    index_joins: int = 0
    tuples_scanned: int = 0
    lookups: int = 0
    candidates_checked: int = 0
    results_emitted: int = 0
    erasures: int = 0
    threshold_checks: int = 0
    # Resource accounting (repro.obs.account): bytes the query's
    # evaluation actually consumed, folded in by `XMLDatabase` from the
    # active `ResourceAccount`.  Mapped vs copied distinguishes
    # zero-copy mmap views from whole-payload materializations;
    # `postings_bytes_read` is the compressed bytes fed to the column
    # decoders; the cache pair attributes postings-cache hits (bytes a
    # re-read was avoided for) vs misses (bytes paid to materialize).
    bytes_mapped: int = 0
    bytes_copied: int = 0
    bytes_decompressed: int = 0
    postings_bytes_read: int = 0
    columns_decompressed: int = 0
    cache_bytes_saved: int = 0
    cache_bytes_paid: int = 0
    # Deadline bookkeeping (repro.reliability): a query stopped by an
    # expired budget under the "partial" policy sets `partial` and
    # counts the bottom-up levels it never reached in `levels_skipped`
    # (the processed ones stay in `levels_processed`).
    partial: bool = False
    levels_skipped: int = 0
    per_level_plan: List[Tuple[int, str]] = field(default_factory=list)
    # Full per-codec/per-level resource breakdown
    # (`ResourceAccount.as_dict`); not a counter -- `merge` sums the
    # nested numeric fields recursively.  None when no accounting ran.
    resources: Optional[Dict[str, object]] = None

    _COUNTER_FIELDS = (
        "levels_processed", "joins", "merge_joins", "index_joins",
        "tuples_scanned", "lookups", "candidates_checked",
        "results_emitted", "erasures", "threshold_checks",
        "bytes_mapped", "bytes_copied",
        "bytes_decompressed", "postings_bytes_read",
        "columns_decompressed", "cache_bytes_saved", "cache_bytes_paid",
        "levels_skipped")

    def merge(self, other: "ExecutionStats") -> "ExecutionStats":
        """Fold `other` into this object: counters add, `partial` ORs
        (a batch is partial if any member is), the per-level plan
        concatenates (plan order = fold order).  Returns self, so
        ``sum`` / ``functools.reduce`` folds read naturally."""
        from ..obs.account import merge_resources

        for name in self._COUNTER_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.partial = self.partial or other.partial
        self.per_level_plan.extend(other.per_level_plan)
        self.resources = merge_resources(self.resources, other.resources)
        return self

    def __iadd__(self, other: "ExecutionStats") -> "ExecutionStats":
        return self.merge(other)

    def __add__(self, other: "ExecutionStats") -> "ExecutionStats":
        merged = ExecutionStats()
        merged.merge(self)
        return merged.merge(other)

    def as_dict(self) -> Dict[str, float]:
        """Every counter, and `partial`."""
        out = {name: getattr(self, name) for name in self._COUNTER_FIELDS}
        out["partial"] = self.partial
        return out


@dataclass
class TopKResult:
    """Result list of a top-K run plus its execution statistics.

    ``partial`` marks a run stopped by an expired `Deadline` under the
    "partial" policy; its results are then a prefix of the unbounded
    run's emission order, and ``bound`` is the guarantee gap: no result
    the run did not return can score above it.  Complete runs leave
    ``bound`` as ``None``.
    """

    results: Sequence[SearchResult]
    stats: ExecutionStats
    terminated_early: bool = False
    partial: bool = False
    bound: Optional[float] = None

    def __iter__(self):
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)


class EmptyResultError(LookupError):
    """Raised by strict APIs when a query term has no occurrences."""
