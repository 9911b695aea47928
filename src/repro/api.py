"""Public facade: `XMLDatabase` and `Query`.

One object bundles the tree, both index families and every algorithm::

    from repro import XMLDatabase

    db = XMLDatabase.from_xml_text(open("bib.xml").read())
    for r in db.search("xml data", semantics="elca"):
        print(r.node.tag, r.node.dewey, r.score)

    top = db.search_topk("xml keyword search", k=10)

The columnar index is built lazily on first use; the Dewey posting
lists the baselines read are a per-term view of it
(`repro.index.inverted`), materialized the first time a term is asked
for.  A database opened from disk also defers its document: the node
table answers node lookups, and `tree` parses ``document.xml`` only when
something needs the real tree (the oracle, `to_xml`, `refresh`, JDewey
maintenance).
"""

from __future__ import annotations

import time
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .algorithms.base import (ELCA, EmptyResultError, ExecutionStats,
                              ResultSet, TopKResult, check_semantics,
                              sort_by_score)
from .obs.account import accounting, fold_into_stats
from .obs.metrics import MetricsRegistry, get_registry
from .obs.slowlog import SlowQueryLog
from .obs.tracing import NULL_TRACER, Span, Tracer, phase_totals, span
from .algorithms.hybrid import HybridTopKSearch
from .algorithms.index_based import IndexBasedSearch
from .algorithms.join_based import JoinBasedSearch
from .algorithms.oracle import SemanticsOracle
from .algorithms.rdil import RDILSearch
from .algorithms.stack_based import StackBasedSearch
from .algorithms.topk_keyword import TopKKeywordSearch
from .cache import QueryCache, result_key
from .reliability.deadline import Deadline, deadline_scope
from .reliability.errors import DeadlineExceeded
from .index.columnar import ColumnarIndex
from .index.inverted import InvertedIndex
from .index.tokenizer import Tokenizer
from .planner.plans import JoinPlanner
from .scoring.ranking import RankingModel
from .xmltree.jdewey import JDeweyEncoder
from .xmltree.parser import parse_xml
from .xmltree.tree import XMLTree

ALGORITHMS = ("join", "stack", "index", "oracle")
TOPK_ALGORITHMS = ("topk-join", "rdil", "hybrid", "join")


class BatchResult(list):
    """The list returned by `search_batch`, plus aggregates.

    Behaves exactly like the plain list of per-query entries (results
    lists, or ``(results, stats)`` pairs with ``with_stats=True``) so
    existing callers are untouched, and additionally carries the
    batch-level summary so nobody folds stats by hand:

    * ``summary`` -- every per-query `ExecutionStats` merged (counters
      added, ``per_level_plan`` concatenated in query order);
    * ``latencies_ms`` -- per-query wall times, same order as entries
      (``0.0`` for a query that failed);
    * ``elapsed_ms`` -- wall time of the whole batch;
    * ``errors`` -- query index -> exception, for queries that failed
      when the batch ran with error isolation (the default).  A failed
      query's entry is ``None`` (or ``(None, stats)``) and its slot
      contributes nothing to ``summary``.
    """

    summary: ExecutionStats
    latencies_ms: List[float]
    elapsed_ms: float
    errors: Dict[int, BaseException]

    @property
    def n_queries(self) -> int:
        return len(self)

    @property
    def ok(self) -> bool:
        """True when every query in the batch succeeded."""
        return not self.errors


def run_batch(queries: Sequence, evaluate, metrics: MetricsRegistry,
              with_stats: bool, raise_on_error: bool) -> BatchResult:
    """The sequential loop behind `XMLDatabase.search_batch` and
    `ShardedDatabase.search_batch`.

    ``evaluate(query)`` answers one query as ``(results, stats)``.  An
    exception it raises is isolated into ``BatchResult.errors`` (and
    counted) unless ``raise_on_error``.  ``repro_batch_queue_depth``
    holds the queries accepted but not yet finished and is back at its
    resting value on every exit, fail-fast included.
    """
    queue_depth = metrics.gauge("repro_batch_queue_depth")
    batch = BatchResult()
    batch.summary = ExecutionStats()
    batch.latencies_ms = []
    batch.errors = {}
    batch_start = time.perf_counter()
    waiting = len(queries)
    queue_depth.inc(waiting)
    try:
        for index, query in enumerate(queries):
            start = time.perf_counter()
            try:
                results, stats = evaluate(query)
                elapsed_ms = (time.perf_counter() - start) * 1000.0
                batch.summary.merge(stats)
            except Exception as exc:
                if raise_on_error:
                    raise
                if isinstance(exc, DeadlineExceeded):
                    metrics.counter("repro_deadline_hits_total",
                                    {"outcome": "error"}).inc()
                metrics.counter("repro_batch_query_errors_total").inc()
                batch.errors[index] = exc
                results, stats, elapsed_ms = None, ExecutionStats(), 0.0
            batch.append((results, stats) if with_stats else results)
            batch.latencies_ms.append(elapsed_ms)
            waiting -= 1
            queue_depth.dec()
    finally:
        queue_depth.dec(waiting)  # fail-fast: slots that never ran
    batch.elapsed_ms = (time.perf_counter() - batch_start) * 1000.0
    metrics.counter("repro_batch_queries_total").inc(len(queries))
    metrics.histogram("repro_batch_latency_ms").observe(batch.elapsed_ms)
    return batch


class Query:
    """A parsed keyword query: distinct terms in first-appearance order.

    Both input shapes route through `Tokenizer.query_terms`, so a list
    of terms normalizes exactly like the equivalent query string --
    cache keys and postings lookups always agree on the term spelling.
    """

    def __init__(self, text_or_terms: Union[str, Sequence[str]],
                 tokenizer: Optional[Tokenizer] = None):
        tokenizer = tokenizer if tokenizer is not None else Tokenizer()
        if isinstance(text_or_terms, str):
            self.terms = tokenizer.query_terms(text_or_terms)
        else:
            self.terms = tokenizer.query_terms(" ".join(text_or_terms))

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self):
        return iter(self.terms)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Query({' '.join(self.terms)!r})"


class XMLDatabase:
    """An indexed XML document plus every search algorithm.

    A `repro.cache.QueryCache` is wired in by default: whole query
    results are LRU-cached (index structures are read-only after build,
    so cached entries never go stale between `refresh` calls).  Size it
    with ``result_cache_size`` (0 disables storage) or pass a shared
    `QueryCache` via ``cache``.

    Observability (`repro.obs`): every query publishes latency and work
    counters into ``metrics`` (the process-wide registry by default);
    pass a live `Tracer` as ``tracer`` to record per-query span trees
    (the default `NullTracer` records nothing); pass ``slow_log`` (or
    just ``slow_query_ms``) to capture query, stats, trace and
    per-phase breakdown of every over-threshold outlier -- a database
    with a slow log and no tracer runs each query under a private live
    one.  Whenever a span tree was recorded, its per-phase exclusive
    times (`repro.obs.tracing.phase_totals`) are published as
    ``repro_phase_time_ms{phase=...}``.
    """

    def __init__(self, tree: Optional[XMLTree],
                 tokenizer: Optional[Tokenizer] = None,
                 ranking: Optional[RankingModel] = None,
                 jdewey_gap: int = 0,
                 cache: Optional[QueryCache] = None,
                 result_cache_size: int = 1024,
                 tracer=None,
                 metrics: Optional[MetricsRegistry] = None,
                 slow_log: Optional[SlowQueryLog] = None,
                 slow_query_ms: Optional[float] = None):
        if tree is not None and not tree.frozen:
            tree.freeze()
        # `repro.diskdb` passes no tree and installs `_open_tree`, the
        # loader `tree` calls on first use; the JDewey numbering is
        # assigned whenever the tree arrives.
        self._tree = tree
        self._open_tree = None
        self.jdewey_gap = jdewey_gap
        self._encoder = (JDeweyEncoder(tree, gap=jdewey_gap)
                         if tree is not None else None)
        self.tokenizer = tokenizer if tokenizer is not None else Tokenizer()
        self.ranking = ranking if ranking is not None else RankingModel()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else get_registry()
        if slow_log is None and slow_query_ms is not None:
            slow_log = SlowQueryLog(threshold_ms=slow_query_ms)
        self.slow_log = slow_log
        self.cache = cache if cache is not None else QueryCache(
            result_cache_size)
        if self.cache.metrics is None:
            self.cache.bind_metrics(self.metrics)
        self._columnar: Optional[ColumnarIndex] = None
        self._inverted: Optional[InvertedIndex] = None

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_xml_text(cls, text: str, **kwargs) -> "XMLDatabase":
        """Parse XML text and index it."""
        return cls(parse_xml(text), **kwargs)

    @classmethod
    def from_tree(cls, tree: XMLTree, **kwargs) -> "XMLDatabase":
        return cls(tree, **kwargs)

    @classmethod
    def generate_dblp(cls, seed: int = 7, n_papers: int = 2000,
                      **kwargs) -> "XMLDatabase":
        """A synthetic DBLP-like database (see `repro.datagen.dblp`)."""
        from .datagen.dblp import DBLPGenerator

        tree = DBLPGenerator(seed=seed, n_papers=n_papers).generate()
        return cls(tree, **kwargs)

    @classmethod
    def generate_xmark(cls, seed: int = 7, scale: float = 0.01,
                       **kwargs) -> "XMLDatabase":
        """A synthetic XMark-like database (see `repro.datagen.xmark`)."""
        from .datagen.xmark import XMarkGenerator

        tree = XMarkGenerator(seed=seed, scale=scale).generate()
        return cls(tree, **kwargs)

    @classmethod
    def open(cls, path: str, **kwargs) -> "XMLDatabase":
        """Open a database directory written by `save`."""
        from .diskdb import load_database

        return load_database(path, **kwargs)

    def save(self, path: str, **kwargs) -> None:
        """Persist the document and both indexes to a directory.

        Keyword arguments (``algorithm``, ``fsync``, ``shards``)
        forward to `repro.diskdb.save_database`.
        """
        from .diskdb import save_database

        save_database(self, path, **kwargs)

    # ------------------------------------------------------------------
    # tree, numbering and indexes (all on first use)
    # ------------------------------------------------------------------

    @property
    def tree(self) -> XMLTree:
        if self._tree is None:
            self._tree = self._open_tree()
            self._encoder = JDeweyEncoder(self._tree, gap=self.jdewey_gap)
        return self._tree

    @property
    def encoder(self) -> JDeweyEncoder:
        """The JDewey numbering of `tree` (and its maintenance)."""
        self.tree
        return self._encoder

    @property
    def columnar_index(self) -> ColumnarIndex:
        if self._columnar is None:
            self._columnar = ColumnarIndex(self.tree, self.tokenizer,
                                           self.ranking)
        return self._columnar

    @property
    def inverted_index(self) -> InvertedIndex:
        """The Dewey view of `columnar_index`; lists derive per term."""
        if self._inverted is None:
            self._inverted = InvertedIndex.over(self.columnar_index)
        return self._inverted

    def refresh(self) -> None:
        """Re-index after document mutations.

        `self.encoder.insert` / `.delete` maintain the JDewey numbering
        incrementally (paper section III-A); Dewey ids and the inverted
        lists are static structures, so after mutating the tree call
        `refresh` to re-freeze and drop the cached indexes (they rebuild
        lazily on the next query).
        """
        self.tree.freeze()
        self._columnar = None
        self._inverted = None
        self.cache.clear()

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------

    def search(self, query: Union[str, Sequence[str], Query],
               semantics: str = ELCA, algorithm: str = "join",
               planner: Optional[JoinPlanner] = None,
               strict: bool = False,
               use_cache: bool = True,
               deadline: Optional[Union[Deadline, float]] = None,
               timeout_ms: Optional[float] = None,
               on_deadline: Optional[str] = None,
               with_stats: bool = False,
               audit: bool = False,
               shadow: str = "off"):
        """Complete result set, in document order.

        ``algorithm`` is one of ``join`` (the paper's join-based
        algorithm, default), ``stack``, ``index`` (the two baselines) or
        ``oracle`` (the naive reference evaluation).  With
        ``strict=True`` a query term absent from the corpus raises
        `EmptyResultError` instead of silently returning no results.
        Results are served from the database's result cache when
        possible (``use_cache=False`` opts out; a custom ``planner``
        bypasses the cache so the requested plan actually runs).

        A query budget (`docs/RELIABILITY.md`) is set with ``deadline``
        (a `repro.reliability.Deadline` or a number of milliseconds) or
        the ``timeout_ms`` convenience kwarg; ``on_deadline`` picks the
        expiry policy -- ``"raise"`` (default, `DeadlineExceeded`) or
        ``"partial"`` (return what the evaluated levels proved, with
        ``stats.partial`` set -- pass ``with_stats=True`` to see it;
        partial results are always a subset of the unbounded run's).
        Budgets are enforced on the ``join`` path; the in-memory
        baselines ignore them.  Partial results are never cached.

        ``audit=True`` runs the query under the plan auditor
        (`repro.obs.audit`): ``stats.audit`` then carries a `PlanAudit`
        with per-level predicted vs. actual cardinality, q-error and
        regret (pass ``with_stats=True`` to see it; the run bypasses
        the result cache so the audited plan actually executes).
        ``shadow`` ("off"/"sampled"/"all") additionally times the
        not-chosen join algorithm for measured regret.  Audit requires
        the ``join`` algorithm -- the one with a section III-C plan.

        Returns the result list, or ``(results, stats)`` with
        ``with_stats=True``.
        """
        check_semantics(semantics)
        deadline = Deadline.coerce(deadline, timeout_ms, on_deadline)
        auditor = None
        if audit:
            if algorithm != "join":
                raise ValueError(
                    "audit=True requires algorithm='join' -- only the "
                    "join-based plan has section III-C decisions to audit")
            from .obs.audit import PlanAuditor

            auditor = PlanAuditor(planner, shadow=shadow)
            planner = auditor.planner
        results, stats = self._run_query(
            "search", query, semantics, algorithm, strict=strict,
            cacheable=use_cache and planner is None, planner=planner,
            deadline=deadline, auditor=auditor)
        if with_stats:
            return results, stats
        return results

    def _run_query(self, op: str, query, semantics: str, algorithm: str,
                   k: Optional[int] = None, *, strict: bool = False,
                   cacheable: bool = True,
                   planner: Optional[JoinPlanner] = None,
                   deadline: Optional[Deadline] = None, auditor=None):
        """The per-query sequence behind `search` (``op="search"``),
        `search_topk` (``"topk"``) and `search_batch` (``"batch"``):
        parse, result-cache lookup, evaluation under a resource account,
        cache fill, then the metrics / slow-log record.

        Returns ``(answer, stats)``.  ``answer`` is the `ResultSet`,
        except that an evaluated top-K (``k`` set, no cache hit) comes
        back as its `TopKResult`, bound and flags intact.  The cache
        counters on ``stats`` are filled here and nowhere else.
        """
        tracer = self.tracer
        if self.slow_log is not None and not tracer.enabled:
            tracer = Tracer(capacity=1)  # only the slow-log record keeps it
        tags = {} if op == "search" else {"k": k}
        start = time.perf_counter()
        # This root makes `tracer` the thread's ambient one: the engines
        # and the disk index open their regions with `span`, as below.
        with tracer.span("query", op=op, semantics=semantics,
                         algorithm=algorithm, **tags) as qspan:
            with span("parse"):
                terms = self._terms(query)
            qspan.tag(terms=list(terms))
            if strict:
                self._check_terms_exist(terms)
            answer = None
            if cacheable:
                key = result_key(terms, semantics, algorithm, k)
                with span("cache_lookup") as cspan:
                    answer = self.cache.get_results(key)
                    cspan.tag(hit=answer is not None)
            if answer is not None:
                stats = ExecutionStats(cache_hits=1)
            else:
                try:
                    if k is None:
                        answer, stats = self._complete_results(
                            terms, semantics, algorithm, planner,
                            deadline=deadline,
                            observer=(auditor.observer
                                      if auditor is not None else None))
                    else:
                        answer = self._topk_result(
                            terms, semantics, algorithm, k,
                            deadline=deadline)
                        stats = answer.stats
                except DeadlineExceeded:
                    # A batch counts its expiries where it isolates
                    # them (`run_batch`), for both database kinds.
                    if op != "batch":
                        self.metrics.counter("repro_deadline_hits_total",
                                             {"outcome": "error"}).inc()
                    raise
                if auditor is not None:
                    stats.audit = auditor.finish(terms, semantics)
                if stats.partial:
                    self.metrics.counter("repro_deadline_hits_total",
                                         {"outcome": "partial"}).inc()
                    qspan.tag(partial=True)
                if cacheable:
                    evictions = self.cache.results.stats.evictions
                    self.cache.put_results(
                        key, answer if k is None else answer.results,
                        partial=stats.partial)
                    stats.cache_misses += 1
                    stats.cache_evictions += \
                        self.cache.results.stats.evictions - evictions
        self._record_query(op, terms, semantics, algorithm, k,
                           (time.perf_counter() - start) * 1000.0, stats,
                           qspan if tracer.enabled else None)
        return answer, stats

    def _complete_results(self, terms: List[str], semantics: str,
                          algorithm: str,
                          planner: Optional[JoinPlanner] = None,
                          deadline: Optional[Deadline] = None,
                          observer=None
                          ) -> Tuple[ResultSet, ExecutionStats]:
        """Uncached complete-evaluation dispatch: `_run_query` and the
        daemon's shard workers call it.

        Evaluation runs under a fresh `ResourceAccount` whose totals
        fold into the returned stats -- per-query resource truth for
        every caller, always on.
        """
        with accounting() as account:
            results, stats = self._evaluate_complete(
                terms, semantics, algorithm, planner, deadline, observer)
        fold_into_stats(stats, account)
        return results, stats

    def _evaluate_complete(self, terms: List[str], semantics: str,
                           algorithm: str,
                           planner: Optional[JoinPlanner] = None,
                           deadline: Optional[Deadline] = None,
                           observer=None
                           ) -> Tuple[ResultSet, ExecutionStats]:
        if algorithm == "join":
            engine = JoinBasedSearch(self.columnar_index, planner)
            if deadline is not None:
                # The scope lets the disk-backed index poll the deadline
                # from inside column materialization; the engine itself
                # receives the deadline as a parameter and handles the
                # partial policy at level boundaries.
                with deadline_scope(deadline):
                    return engine.evaluate(terms, semantics,
                                           observer=observer,
                                           deadline=deadline)
            return engine.evaluate(terms, semantics, observer=observer)
        # The baselines build objects; wrapped once, the API returns
        # one type whatever the algorithm.
        if algorithm == "stack":
            results, stats = StackBasedSearch(self.inverted_index).evaluate(
                terms, semantics)
        elif algorithm == "index":
            results, stats = IndexBasedSearch(self.inverted_index).evaluate(
                terms, semantics)
        elif algorithm == "oracle":
            results = SemanticsOracle(self.tree, self.inverted_index,
                                      self.ranking).evaluate(terms, semantics)
            stats = ExecutionStats()
        else:
            raise ValueError(
                f"unknown algorithm {algorithm!r}; one of {ALGORITHMS}")
        return ResultSet.of(self.columnar_index.nodes, results), stats

    def search_ranked(self, query: Union[str, Sequence[str], Query],
                      semantics: str = ELCA,
                      algorithm: str = "join",
                      **kwargs) -> ResultSet:
        """Complete result set, best score first.

        Extra keyword arguments (``deadline``, ``timeout_ms``,
        ``on_deadline``, ``use_cache``, ...) forward to `search`.
        """
        return sort_by_score(self.search(query, semantics, algorithm,
                                         **kwargs))

    def search_topk(self, query: Union[str, Sequence[str], Query], k: int,
                    semantics: str = ELCA, algorithm: str = "topk-join",
                    strict: bool = False,
                    deadline: Optional[Union[Deadline, float]] = None,
                    timeout_ms: Optional[float] = None,
                    on_deadline: Optional[str] = None) -> TopKResult:
        """Top-`k` results, best first.

        ``algorithm`` is one of ``topk-join`` (the paper's join-based
        top-K algorithm, default), ``rdil`` (the TA-style baseline),
        ``hybrid`` (section V-D) or ``join`` (evaluate everything, then
        truncate -- the "general join-based" line of Figure 10).

        ``deadline`` / ``timeout_ms`` / ``on_deadline`` set a query
        budget (`docs/RELIABILITY.md`), enforced on the ``topk-join``,
        ``hybrid`` and ``join`` paths (``rdil`` runs unbudgeted).  Under
        the ``partial`` policy an expired run returns the prefix proven
        so far: ``TopKResult.partial`` is set and ``TopKResult.bound``
        is the guarantee gap -- no result the run did not return can
        score above it.
        """
        check_semantics(semantics)
        deadline = Deadline.coerce(deadline, timeout_ms, on_deadline)
        top, _stats = self._run_query("topk", query, semantics, algorithm,
                                      k, strict=strict, cacheable=False,
                                      deadline=deadline)
        return top

    def _topk_result(self, terms: List[str], semantics: str, algorithm: str,
                     k: int,
                     deadline: Optional[Deadline] = None) -> TopKResult:
        """Uncached top-K dispatch (`_run_query`, the daemon's shard
        workers), accounted the same way as `_complete_results`."""
        with accounting() as account:
            top = self._evaluate_topk(terms, semantics, algorithm, k,
                                      deadline=deadline)
        fold_into_stats(top.stats, account)
        return top

    def _evaluate_topk(self, terms: List[str], semantics: str,
                       algorithm: str, k: int,
                       deadline: Optional[Deadline] = None) -> TopKResult:
        if algorithm in ("topk-join", "hybrid"):
            engine = (TopKKeywordSearch if algorithm == "topk-join"
                      else HybridTopKSearch)(self.columnar_index)
            if deadline is not None:
                with deadline_scope(deadline):
                    return engine.search(terms, k, semantics,
                                         deadline=deadline)
            return engine.search(terms, k, semantics)
        if algorithm == "rdil":
            top = RDILSearch(self.inverted_index).search(terms, k, semantics)
            top.results = ResultSet.of(self.columnar_index.nodes,
                                       top.results)
            return top
        if algorithm == "join":
            results, stats = self._evaluate_complete(
                terms, semantics, "join", deadline=deadline)
            return TopKResult(results.top(k), stats, partial=stats.partial)
        raise ValueError(
            f"unknown algorithm {algorithm!r}; one of {TOPK_ALGORITHMS}")

    def search_batch(self, queries: Sequence[Union[str, Sequence[str],
                                                   Query]],
                     semantics: str = ELCA,
                     k: Optional[int] = None,
                     algorithm: Optional[str] = None,
                     with_stats: bool = False,
                     use_cache: bool = True,
                     deadline: Optional[Union[Deadline, float]] = None,
                     timeout_ms: Optional[float] = None,
                     on_deadline: Optional[str] = None,
                     raise_on_error: bool = False) -> BatchResult:
        """Evaluate many queries, one after another, against shared
        cache state.

        ``k=None`` (default) runs complete evaluations (``algorithm``
        defaults to ``join``) and each entry of the returned list is the
        query's `SearchResult` list in document order; with ``k`` set,
        top-K evaluations run instead (``algorithm`` defaults to
        ``topk-join``) and each entry is the best-first truncated list.
        With ``with_stats=True`` entries are ``(results,
        ExecutionStats)`` pairs; a repeated query is served from the
        result cache (``stats.cache_hits == 1``) and skips level
        evaluation entirely (``stats.levels_processed == 0``).

        The library evaluates one query at a time; to evaluate in
        parallel, serve the database with ``repro serve --workers N``
        (`docs/SERVING.md`).

        The returned list is a `BatchResult`: it additionally carries
        ``summary`` (every per-query `ExecutionStats` merged, cache
        counters included), ``latencies_ms`` and ``elapsed_ms``, so
        callers never fold stats by hand.  The batch also publishes into
        the metrics registry: ``repro_batch_queries_total``,
        ``repro_batch_queue_depth`` (queries accepted but not yet
        finished) and per-query ``repro_query_latency_ms{op=batch}``.

        One failing query does not lose the batch: by default its slot
        holds ``None`` (or ``(None, stats)``), the exception lands in
        ``BatchResult.errors`` keyed by query index, and
        ``repro_batch_query_errors_total`` counts it.  Pass
        ``raise_on_error=True`` to get fail-fast propagation instead.

        ``deadline`` / ``timeout_ms`` / ``on_deadline`` set one shared
        budget for the whole batch: every query checks the same clock,
        so once it expires the remaining deadline-aware queries either
        raise (isolated into ``errors`` unless ``raise_on_error``) or
        return partial results, per the policy.
        """
        check_semantics(semantics)
        deadline = Deadline.coerce(deadline, timeout_ms, on_deadline)
        if algorithm is None:
            algorithm = "join" if k is None else "topk-join"

        def one(query) -> Tuple[ResultSet, ExecutionStats]:
            answer, stats = self._run_query(
                "batch", query, semantics, algorithm, k,
                cacheable=use_cache, deadline=deadline)
            return (answer.results if isinstance(answer, TopKResult)
                    else answer), stats

        return run_batch(queries, one, self.metrics, with_stats,
                         raise_on_error)

    def search_stream(self, query: Union[str, Sequence[str], Query],
                      semantics: str = ELCA,
                      deadline: Optional[Union[Deadline, float]] = None,
                      timeout_ms: Optional[float] = None,
                      on_deadline: Optional[str] = None):
        """Yield results best-first, lazily (progressive top-K).

        Each ``next()`` advances the join-based top-K machinery only far
        enough to prove one more result safe; abandoning the generator
        abandons the remaining work.

        A ``deadline`` bounds the stream: under the ``raise`` policy an
        expired budget raises `DeadlineExceeded` from ``next()``; under
        ``partial`` the stream simply ends.  Results yielded before the
        cut are a prefix of the unbounded stream either way.  (No
        thread-local scope is installed for streams -- the generator
        suspends between ``next()`` calls, and a scope left set across
        a ``yield`` would leak into the consumer's unrelated queries;
        the engine checks its deadline parameter instead.)
        """
        deadline = Deadline.coerce(deadline, timeout_ms, on_deadline)
        return TopKKeywordSearch(self.columnar_index,
                                 tracer=self.tracer).stream(
            self._terms(query), semantics, deadline=deadline)

    def explain(self, query: Union[str, Sequence[str], Query],
                semantics: str = ELCA,
                planner: Optional[JoinPlanner] = None,
                trace: bool = False,
                analyze: bool = False,
                shadow: str = "off",
                estimator=None):
        """Per-level trace of the join-based evaluation (a `QueryPlan`).

        Shows the dynamic optimization at work: column sizes,
        cardinality estimates and the merge/index join chosen at each
        level (paper section III-C).  With ``trace=True`` (or when the
        database runs with a live tracer) the plan also carries the
        span tree of the evaluation (``plan.trace``), rendered by
        ``plan.format()``.

        ``analyze=True`` is EXPLAIN ANALYZE (`docs/OBSERVABILITY.md`):
        ``plan.audit`` carries the `repro.obs.audit.PlanAudit` verdict
        -- per-level predicted vs. actual cardinality, q-error and plan
        regret, with ``shadow`` ("off"/"sampled"/"all") really running
        the not-chosen join algorithm for measured regret, and
        ``estimator`` overriding the audited cardinality model.
        """
        from .algorithms.explain import explain as _explain

        return _explain(self.columnar_index, self._terms(query), semantics,
                        planner, tracer=Tracer() if trace else self.tracer,
                        analyze=analyze, shadow=shadow, estimator=estimator)

    def _terms(self, query: Union[str, Sequence[str], Query]) -> List[str]:
        if isinstance(query, Query):
            return query.terms
        return Query(query, self.tokenizer).terms

    def _check_terms_exist(self, terms: Sequence[str]) -> None:
        index = self.columnar_index
        missing = [t for t in terms if t not in index]
        if missing:
            raise EmptyResultError(
                f"query terms with no occurrences: {missing}")

    # ------------------------------------------------------------------
    # observability plumbing
    # ------------------------------------------------------------------

    def _record_query(self, op: str, terms: List[str], semantics: str,
                      algorithm: str, k: Optional[int], elapsed_ms: float,
                      stats: Optional[ExecutionStats],
                      trace_root: Optional[Span]) -> None:
        """Publish one finished query into metrics and the slow log."""
        metrics = self.metrics
        metrics.counter("repro_queries_total", {"op": op}).inc()
        metrics.histogram("repro_query_latency_ms",
                          {"op": op}).observe(elapsed_ms)
        if trace_root is not None:
            for phase, ms in phase_totals(trace_root).items():
                metrics.histogram("repro_phase_time_ms",
                                  {"phase": phase}).observe(ms)
        if stats is not None:
            if stats.merge_joins:
                metrics.counter("repro_level_joins_total",
                                {"algorithm": "merge"}).inc(
                    stats.merge_joins)
            if stats.index_joins:
                metrics.counter("repro_level_joins_total",
                                {"algorithm": "index"}).inc(
                    stats.index_joins)
            # Resource-accounting totals (repro.obs.account): published
            # only when the query did physical work, so a cold registry
            # is not littered with zero series.
            if stats.bytes_mapped:
                metrics.counter("repro_query_bytes_mapped_total").inc(
                    stats.bytes_mapped)
            if stats.bytes_copied:
                metrics.counter("repro_query_bytes_copied_total").inc(
                    stats.bytes_copied)
            if stats.cache_bytes_saved:
                metrics.counter("repro_query_bytes_cache_total",
                                {"outcome": "saved"}).inc(
                    stats.cache_bytes_saved)
            if stats.cache_bytes_paid:
                metrics.counter("repro_query_bytes_cache_total",
                                {"outcome": "paid"}).inc(
                    stats.cache_bytes_paid)
            resources = stats.resources or {}
            for outcome, count in resources.get("decode_cache",
                                                {}).items():
                if count:
                    metrics.counter(
                        "repro_query_decode_cache_total",
                        {"outcome": "hit" if outcome == "hits"
                         else "miss"}).inc(count)
            for codec, nbytes in resources.get("by_codec", {}).items():
                metrics.counter("repro_query_bytes_decompressed_total",
                                {"codec": codec}).inc(nbytes)
            for level, count in resources.get("by_level_postings",
                                              {}).items():
                metrics.counter("repro_query_postings_scanned_total",
                                {"level": str(level)}).inc(count)
            for level, nbytes in resources.get("by_level_bytes",
                                               {}).items():
                metrics.counter("repro_query_postings_bytes_total",
                                {"level": str(level)}).inc(nbytes)
        if self.slow_log is not None:
            stats_dict = stats.as_dict() if stats is not None else None
            if stats_dict is not None and stats.resources is not None:
                stats_dict["resources"] = stats.resources
            self.slow_log.maybe_record(
                elapsed_ms, terms, semantics, algorithm, k,
                stats_dict, trace_root)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def cache_stats(self) -> Dict[str, Dict[str, int]]:
        """Hit/miss/eviction counters of the result cache."""
        return self.cache.stats()

    def metrics_snapshot(self) -> Dict[str, Dict[str, Any]]:
        """`MetricsRegistry.snapshot` of the registry this database
        publishes into (query latency percentiles, per-level join
        counts, cache hit ratios, batch gauges, ...)."""
        return self.metrics.snapshot()

    def document_frequency(self, term: str) -> int:
        return self.columnar_index.document_frequency(term.lower())

    def _shape(self):
        """Whatever knows the node count and depth without parsing: the
        node table of an opened database, else the tree."""
        if self._tree is None and self._columnar is not None:
            return self._columnar.nodes
        return self.tree

    def __len__(self) -> int:
        return len(self._shape())

    @property
    def depth(self) -> int:
        """Maximum level over all nodes (root = 1)."""
        return self._shape().depth

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<XMLDatabase nodes={len(self)} depth={self.depth}>"
