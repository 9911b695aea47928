"""Shared query/result types and execution statistics.

Every algorithm in this package -- the paper's join-based family and the
three baselines -- consumes a list of query terms and produces
`SearchResult` objects, so they are interchangeable behind
`repro.api.XMLDatabase` and directly comparable in the benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

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


def sort_by_document_order(results: List[SearchResult]) -> List[SearchResult]:
    """By the nodes' document-order row: the same order as their Dewey
    ids, without building a Dewey id per table-backed result."""
    return sorted(results, key=lambda r: r.node.row)


def sort_by_score(results: List[SearchResult]) -> List[SearchResult]:
    """Descending score; document order breaks ties deterministically."""
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
    # Query-serving cache counters (repro.cache), filled in by
    # `XMLDatabase` when a cache is wired in: result-cache hits skip
    # level evaluation entirely, so `levels_processed` stays 0 for them.
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
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
    # EXPLAIN ANALYZE payload (repro.obs.audit.PlanAudit), attached by
    # `XMLDatabase.search(audit=True)` / `explain(analyze=True)`.  Not a
    # counter: `merge` keeps the first non-None audit it sees.
    audit: Optional[object] = None

    _COUNTER_FIELDS = (
        "levels_processed", "joins", "merge_joins", "index_joins",
        "tuples_scanned", "lookups", "candidates_checked",
        "results_emitted", "erasures", "threshold_checks", "cache_hits",
        "cache_misses", "cache_evictions", "bytes_mapped", "bytes_copied",
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
        if self.audit is None:
            self.audit = other.audit
        return self

    def __iadd__(self, other: "ExecutionStats") -> "ExecutionStats":
        return self.merge(other)

    def __add__(self, other: "ExecutionStats") -> "ExecutionStats":
        merged = ExecutionStats()
        merged.merge(self)
        return merged.merge(other)

    def as_dict(self) -> Dict[str, float]:
        return {
            "levels_processed": self.levels_processed,
            "joins": self.joins,
            "merge_joins": self.merge_joins,
            "index_joins": self.index_joins,
            "tuples_scanned": self.tuples_scanned,
            "lookups": self.lookups,
            "candidates_checked": self.candidates_checked,
            "results_emitted": self.results_emitted,
            "erasures": self.erasures,
            "threshold_checks": self.threshold_checks,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_evictions": self.cache_evictions,
            "bytes_mapped": self.bytes_mapped,
            "bytes_copied": self.bytes_copied,
            "bytes_decompressed": self.bytes_decompressed,
            "postings_bytes_read": self.postings_bytes_read,
            "columns_decompressed": self.columns_decompressed,
            "cache_bytes_saved": self.cache_bytes_saved,
            "cache_bytes_paid": self.cache_bytes_paid,
            "partial": self.partial,
            "levels_skipped": self.levels_skipped,
        }


@dataclass
class TopKResult:
    """Result list of a top-K run plus its execution statistics.

    ``partial`` marks a run stopped by an expired `Deadline` under the
    "partial" policy; its results are then a prefix of the unbounded
    run's emission order, and ``bound`` is the guarantee gap: no result
    the run did not return can score above it.  Complete runs leave
    ``bound`` as ``None``.
    """

    results: List[SearchResult]
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
