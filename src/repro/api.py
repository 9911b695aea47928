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
                              SearchResult, TopKResult, check_semantics,
                              sort_by_score)
from .obs.account import accounting, fold_into_stats
from .obs.metrics import MetricsRegistry, get_registry
from .obs.profiler import PhaseProfiler, profile_phase
from .obs.slowlog import SlowQueryLog
from .obs.tracing import NULL_TRACER, Span, Tracer
from .algorithms.hybrid import HybridTopKSearch
from .algorithms.index_based import IndexBasedSearch
from .algorithms.join_based import JoinBasedSearch
from .algorithms.oracle import SemanticsOracle
from .algorithms.rdil import RDILSearch
from .algorithms.stack_based import StackBasedSearch
from .algorithms.topk_keyword import TopKKeywordSearch
from .cache import QueryCache, result_key
from .reliability.deadline import Deadline, deadline_scope
from .reliability.errors import DeadlineExceeded, WorkerCrashError
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

#: The database a forked `search_batch` worker serves.  Set in the
#: parent immediately before the fork-context pool spawns its workers,
#: so children inherit the object -- index structures, mmap'd columns
#: and caches -- copy-on-write, with zero serialization.
_WORKER_DB: Optional["XMLDatabase"] = None

#: Test seam: a callable run at worker entry with the query value.
#: Installed in the parent *before* the pool forks (workers inherit it
#: copy-on-write), it lets crash-recovery tests kill a worker
#: deterministically on a chosen query -- the same fork-inherited-hook
#: trick `repro.diskdb` uses for disk faults.
_BATCH_FAULT_HOOK = None


def _process_batch_worker(payload):
    """Evaluate one batch query inside a forked worker.

    Runs the same cache-then-evaluate sequence as the in-process
    `search_batch` closure, against the worker's inherited database
    copy.  Ships back a *light* result -- ``(level, last JDewey
    component, score, witnesses)`` per hit -- instead of pickling
    `Node`/tree graphs; the parent rehydrates through
    ``columnar_index.node_at``.  Exceptions come back as values so the
    parent keeps batch error isolation.
    """
    index, query, semantics, k, algorithm, use_cache, deadline = payload
    if _BATCH_FAULT_HOOK is not None:
        _BATCH_FAULT_HOOK(query)
    db = _WORKER_DB
    if db is None:  # pragma: no cover - misuse guard
        raise RuntimeError(
            "worker process has no database; process pools must be "
            "created by XMLDatabase.batch_executor(processes=...) or "
            "search_batch(processes=...)")
    start = time.perf_counter()
    try:
        terms = db._terms(query)
        results: Optional[List[SearchResult]] = None
        stats = ExecutionStats()
        key = result_key(terms, semantics, algorithm, k)
        if use_cache:
            results = db.cache.get_results(key)
            if results is not None:
                stats.cache_hits = 1
        if results is None:
            if k is None:
                results, stats = db._complete_results(
                    terms, semantics, algorithm, deadline=deadline)
            else:
                top = db._topk_result(terms, semantics, algorithm, k,
                                      deadline=deadline)
                results, stats = list(top.results), top.stats
            if use_cache:
                db.cache.put_results(key, results, partial=stats.partial)
                stats.cache_misses += 1
        light = [(r.node.level, r.node.jdewey[-1], r.score,
                  tuple(r.witness_scores)) for r in results]
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        return index, terms, light, stats, elapsed_ms, None
    except Exception as exc:
        import pickle

        try:
            pickle.dumps(exc)
        except Exception:
            exc = RuntimeError(f"{type(exc).__name__}: {exc}")
        return index, [], None, ExecutionStats(), 0.0, exc


class BatchResult(list):
    """The list returned by `XMLDatabase.search_batch`, plus aggregates.

    Behaves exactly like the plain list of per-query entries (results
    lists, or ``(results, stats)`` pairs with ``with_stats=True``) so
    existing callers are untouched, and additionally carries the
    batch-level summary so nobody folds stats by hand:

    * ``summary`` -- every per-query `ExecutionStats` merged (counters
      added, ``per_level_plan`` concatenated in completion order);
    * ``latencies_ms`` -- per-query wall times, same order as entries;
    * ``elapsed_ms`` -- wall time of the whole batch (wall clock, not
      the sum: with ``threads`` > 1 it is smaller than the sum);
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

    A `repro.cache.QueryCache` is wired in by default: per-term postings
    lookups and whole query results are LRU-cached (index structures are
    read-only after build, so cached entries never go stale between
    `refresh` calls).  Size the caches with ``postings_cache_size`` /
    ``result_cache_size`` (0 disables storage) or pass a shared
    `QueryCache` via ``cache``.

    Observability (`repro.obs`): every query publishes latency and work
    counters into ``metrics`` (the process-wide registry by default);
    pass a live `Tracer` as ``tracer`` to record per-query span trees
    (the default `NullTracer` keeps the hot path unchanged); pass
    ``slow_log`` (or just ``slow_query_ms``) to capture query, stats
    and trace of every over-threshold outlier.  The phase profiler
    (`repro.obs.profiler`) is *on* by default -- every query's wall
    time is attributed to pipeline phases and published as
    ``repro_phase_time_ms{phase=...}``; pass
    ``profiler=repro.obs.NULL_PROFILER`` to switch it off.
    """

    def __init__(self, tree: Optional[XMLTree],
                 tokenizer: Optional[Tokenizer] = None,
                 ranking: Optional[RankingModel] = None,
                 jdewey_gap: int = 0,
                 cache: Optional[QueryCache] = None,
                 postings_cache_size: int = 256,
                 result_cache_size: int = 1024,
                 tracer=None,
                 metrics: Optional[MetricsRegistry] = None,
                 slow_log: Optional[SlowQueryLog] = None,
                 slow_query_ms: Optional[float] = None,
                 profiler=None):
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
        self.profiler = (profiler if profiler is not None
                         else PhaseProfiler(metrics=self.metrics))
        if slow_log is None and slow_query_ms is not None:
            slow_log = SlowQueryLog(threshold_ms=slow_query_ms)
        self.slow_log = slow_log
        self.cache = cache if cache is not None else QueryCache(
            postings_cache_size, result_cache_size)
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
        tracer = self.tracer
        start = time.perf_counter()
        stats: Optional[ExecutionStats] = None
        with self.profiler.profile() as prof, \
                tracer.span("query", op="search", semantics=semantics,
                            algorithm=algorithm) as qspan:
            with tracer.span("parse"), profile_phase("parse"):
                terms = self._terms(query)
            qspan.tag(terms=list(terms))
            if strict:
                self._check_terms_exist(terms)
            cacheable = use_cache and planner is None
            key = result_key(terms, semantics, algorithm, None)
            results: Optional[List[SearchResult]] = None
            if cacheable:
                with tracer.span("cache_lookup") as cspan:
                    results = self.cache.get_results(key)
                    cspan.tag(hit=results is not None)
                if results is not None:
                    stats = ExecutionStats()
                    stats.cache_hits = 1
            if results is None:
                try:
                    results, stats = self._complete_results(
                        terms, semantics, algorithm, planner,
                        deadline=deadline,
                        observer=(auditor.observer if auditor is not None
                                  else None))
                except DeadlineExceeded:
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
                    self.cache.put_results(key, results,
                                           partial=stats.partial)
        self._record_query("search", terms, semantics, algorithm, None,
                           (time.perf_counter() - start) * 1000.0, stats,
                           qspan if tracer.enabled else None,
                           phases=prof.phases if prof is not None else None)
        if with_stats:
            return results, stats
        return results

    def _complete_results(self, terms: List[str], semantics: str,
                          algorithm: str,
                          planner: Optional[JoinPlanner] = None,
                          deadline: Optional[Deadline] = None,
                          observer=None
                          ) -> Tuple[List[SearchResult], ExecutionStats]:
        """Uncached complete-evaluation dispatch shared by `search` and
        `search_batch` (and the daemon's shard workers).

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
                           ) -> Tuple[List[SearchResult], ExecutionStats]:
        if algorithm == "join":
            engine = JoinBasedSearch(self.columnar_index, planner,
                                     postings_cache=self.cache,
                                     tracer=self.tracer)
            if deadline is not None:
                # The scope lets the lazy disk index poll the deadline
                # from inside column materialization; the engine itself
                # receives the deadline as a parameter and handles the
                # partial policy at level boundaries.
                with deadline_scope(deadline):
                    return engine.evaluate(terms, semantics,
                                           observer=observer,
                                           deadline=deadline)
            return engine.evaluate(terms, semantics, observer=observer)
        if algorithm == "stack":
            return StackBasedSearch(self.inverted_index).evaluate(
                terms, semantics)
        if algorithm == "index":
            return IndexBasedSearch(self.inverted_index).evaluate(
                terms, semantics)
        if algorithm == "oracle":
            results = SemanticsOracle(self.tree, self.inverted_index,
                                      self.ranking).evaluate(terms, semantics)
            return results, ExecutionStats()
        raise ValueError(
            f"unknown algorithm {algorithm!r}; one of {ALGORITHMS}")

    def search_ranked(self, query: Union[str, Sequence[str], Query],
                      semantics: str = ELCA,
                      algorithm: str = "join",
                      **kwargs) -> List[SearchResult]:
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
        budget (`docs/RELIABILITY.md`), enforced on the ``topk-join``
        and ``join`` paths.  Under the ``partial`` policy an expired
        run returns the prefix proven so far: ``TopKResult.partial`` is
        set and ``TopKResult.bound`` is the guarantee gap -- no result
        the run did not return can score above it.
        """
        check_semantics(semantics)
        deadline = Deadline.coerce(deadline, timeout_ms, on_deadline)
        tracer = self.tracer
        start = time.perf_counter()
        with self.profiler.profile() as prof, \
                tracer.span("query", op="topk", semantics=semantics,
                            algorithm=algorithm, k=k) as qspan:
            with tracer.span("parse"), profile_phase("parse"):
                terms = self._terms(query)
            qspan.tag(terms=list(terms))
            if strict:
                self._check_terms_exist(terms)
            try:
                top = self._topk_result(terms, semantics, algorithm, k,
                                        deadline=deadline)
            except DeadlineExceeded:
                self.metrics.counter("repro_deadline_hits_total",
                                     {"outcome": "error"}).inc()
                raise
            if top.partial:
                self.metrics.counter("repro_deadline_hits_total",
                                     {"outcome": "partial"}).inc()
                qspan.tag(partial=True)
        self._record_query("topk", terms, semantics, algorithm, k,
                           (time.perf_counter() - start) * 1000.0,
                           top.stats, qspan if tracer.enabled else None,
                           phases=prof.phases if prof is not None else None)
        return top

    def _topk_result(self, terms: List[str], semantics: str, algorithm: str,
                     k: int,
                     deadline: Optional[Deadline] = None) -> TopKResult:
        """Uncached top-K dispatch shared by `search_topk` and
        `search_batch` (and the daemon's shard workers), accounted the
        same way as `_complete_results`."""
        with accounting() as account:
            top = self._evaluate_topk(terms, semantics, algorithm, k,
                                      deadline=deadline)
        fold_into_stats(top.stats, account)
        return top

    def _evaluate_topk(self, terms: List[str], semantics: str,
                       algorithm: str, k: int,
                       deadline: Optional[Deadline] = None) -> TopKResult:
        if algorithm == "topk-join":
            engine = TopKKeywordSearch(self.columnar_index,
                                       tracer=self.tracer)
            if deadline is not None:
                with deadline_scope(deadline):
                    return engine.search(terms, k, semantics,
                                         deadline=deadline)
            return engine.search(terms, k, semantics)
        if algorithm == "rdil":
            return RDILSearch(self.inverted_index).search(terms, k, semantics)
        if algorithm == "hybrid":
            return HybridTopKSearch(self.columnar_index).search(
                terms, k, semantics)
        if algorithm == "join":
            engine = JoinBasedSearch(self.columnar_index,
                                     postings_cache=self.cache,
                                     tracer=self.tracer)
            if deadline is not None:
                with deadline_scope(deadline):
                    results, stats = engine.evaluate(terms, semantics,
                                                     deadline=deadline)
            else:
                results, stats = engine.evaluate(terms, semantics)
            return TopKResult(sort_by_score(results)[:k], stats,
                              partial=stats.partial)
        raise ValueError(
            f"unknown algorithm {algorithm!r}; one of {TOPK_ALGORITHMS}")

    def search_batch(self, queries: Sequence[Union[str, Sequence[str],
                                                   Query]],
                     semantics: str = ELCA,
                     k: Optional[int] = None,
                     algorithm: Optional[str] = None,
                     threads: Optional[int] = None,
                     processes: Optional[int] = None,
                     executor=None,
                     with_stats: bool = False,
                     use_cache: bool = True,
                     deadline: Optional[Union[Deadline, float]] = None,
                     timeout_ms: Optional[float] = None,
                     on_deadline: Optional[str] = None,
                     raise_on_error: bool = False):
        """Evaluate many queries against shared cache state.

        ``k=None`` (default) runs complete evaluations (``algorithm``
        defaults to ``join``) and each entry of the returned list is the
        query's `SearchResult` list in document order; with ``k`` set,
        top-K evaluations run instead (``algorithm`` defaults to
        ``topk-join``) and each entry is the best-first truncated list.

        ``threads`` > 1 evaluates queries on a thread pool -- the index
        structures are read-only after build and the caches take a lock,
        so results are identical to the sequential run.  ``processes``
        > 1 evaluates them on a fork-based process pool instead: each
        worker inherits the database copy-on-write (for an opened
        database the mmap'd columns are *shared* pages, not copies),
        sidestepping the GIL for CPU-bound batches.  Per-worker
        `ExecutionStats` merge into ``summary`` exactly as in-process
        stats do, and the parent re-records every query's latency and
        join counters, so metrics totals match a single-process run.
        On platforms without the ``fork`` start method the call falls
        back to a thread pool of the same width.  ``executor`` accepts
        a reusable pool from `batch_executor` (or any
        `ThreadPoolExecutor`) -- it is *not* shut down, so warmed
        workers amortize across batches.  Per-query tracer spans are
        not recorded on the process path (spans cannot cross the
        process boundary).  With
        ``with_stats=True`` entries are ``(results, ExecutionStats)``
        pairs; a repeated query is served from the result cache
        (``stats.cache_hits == 1``) and skips level evaluation entirely
        (``stats.levels_processed == 0``).

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
        tracer = self.tracer
        queue_depth = self.metrics.gauge("repro_batch_queue_depth")
        batch_start = time.perf_counter()

        def one(query) -> Tuple[List[SearchResult], ExecutionStats, float]:
            start = time.perf_counter()
            with self.profiler.profile() as prof, \
                    tracer.span("query", op="batch", semantics=semantics,
                                algorithm=algorithm, k=k) as qspan:
                with tracer.span("parse"), profile_phase("parse"):
                    terms = self._terms(query)
                qspan.tag(terms=list(terms))
                results: Optional[List[SearchResult]] = None
                stats = ExecutionStats()
                key = result_key(terms, semantics, algorithm, k)
                if use_cache:
                    with tracer.span("cache_lookup") as cspan:
                        results = self.cache.get_results(key)
                        cspan.tag(hit=results is not None)
                    if results is not None:
                        stats.cache_hits = 1
                if results is None:
                    if k is None:
                        results, stats = self._complete_results(
                            terms, semantics, algorithm, deadline=deadline)
                    else:
                        top = self._topk_result(terms, semantics,
                                                algorithm, k,
                                                deadline=deadline)
                        results, stats = list(top.results), top.stats
                    if stats.partial:
                        self.metrics.counter("repro_deadline_hits_total",
                                             {"outcome": "partial"}).inc()
                        qspan.tag(partial=True)
                    if use_cache:
                        before = self.cache.results.stats.evictions
                        self.cache.put_results(key, results,
                                               partial=stats.partial)
                        stats.cache_misses += 1
                        stats.cache_evictions += \
                            self.cache.results.stats.evictions - before
            elapsed_ms = (time.perf_counter() - start) * 1000.0
            self._record_query("batch", terms, semantics, algorithm, k,
                               elapsed_ms, stats,
                               qspan if tracer.enabled else None,
                               phases=(prof.phases if prof is not None
                                       else None))
            return results, stats, elapsed_ms

        import threading

        errors: Dict[int, BaseException] = {}
        progress_lock = threading.Lock()
        finished = 0

        def one_isolated(item):
            # queue_depth decrements exactly once per query, success or
            # failure, so the gauge cannot drift under errors.
            nonlocal finished
            index, query = item
            try:
                return one(query)
            except Exception as exc:
                if raise_on_error:
                    raise
                if isinstance(exc, DeadlineExceeded):
                    self.metrics.counter("repro_deadline_hits_total",
                                         {"outcome": "error"}).inc()
                self.metrics.counter(
                    "repro_batch_query_errors_total").inc()
                with progress_lock:
                    errors[index] = exc
                return None, ExecutionStats(), 0.0
            finally:
                queue_depth.dec()
                with progress_lock:
                    finished += 1

        mode, pool, own_pool = self._resolve_batch_pool(
            threads, processes, executor)
        indexed = list(enumerate(queries))
        queue_depth.inc(len(queries))
        try:
            if mode != "inline":
                # Build lazy indexes up-front: concurrent first touches
                # would otherwise race to construct them (and forked
                # workers must inherit them already built).
                if algorithm in ("join", "topk-join", "hybrid"):
                    self.columnar_index
                if algorithm in ("stack", "index", "oracle", "rdil"):
                    self.inverted_index
            if mode == "process":
                def on_done():
                    nonlocal finished
                    queue_depth.dec()
                    with progress_lock:
                        finished += 1

                triples = self._run_batch_processes(
                    pool, own_pool, processes, indexed, semantics, k,
                    algorithm, use_cache, deadline, raise_on_error,
                    errors, on_done)
            elif mode == "thread":
                if own_pool:
                    with pool:
                        triples = list(pool.map(one_isolated, indexed))
                else:
                    triples = list(pool.map(one_isolated, indexed))
            else:
                triples = [one_isolated(item) for item in indexed]
        except BaseException:
            # Fail-fast propagation: queries that never started still
            # hold queue slots; release them so the gauge stays honest.
            queue_depth.dec(len(queries) - finished)
            raise

        summary = ExecutionStats()
        for index, (_results, stats, _ms) in enumerate(triples):
            if index not in errors:
                summary.merge(stats)
        if with_stats:
            batch = BatchResult((results, stats)
                                for results, stats, _ms in triples)
        else:
            batch = BatchResult(results for results, _stats, _ms in triples)
        batch.summary = summary
        batch.latencies_ms = [ms for _results, _stats, ms in triples]
        batch.elapsed_ms = (time.perf_counter() - batch_start) * 1000.0
        batch.errors = errors
        self.metrics.counter("repro_batch_queries_total").inc(len(queries))
        self.metrics.histogram("repro_batch_latency_ms").observe(
            batch.elapsed_ms)
        return batch

    def batch_executor(self, threads: Optional[int] = None,
                       processes: Optional[int] = None):
        """A reusable pool for ``search_batch(executor=...)``.

        Pass exactly one of ``threads`` / ``processes``.  The process
        flavour is a fork-context `ProcessPoolExecutor` bound to *this*
        database: workers fork lazily on the first batch and inherit
        the built indexes (and any mmap) copy-on-write, so
        reusing the executor across batches amortizes both worker
        startup and page warmup.  Handing it to a different database's
        ``search_batch`` raises.  On platforms without the ``fork``
        start method a thread pool of the same width is returned
        instead.  The caller owns the executor: ``search_batch`` never
        shuts it down, call ``.shutdown()`` (or use it as a context
        manager) when done.
        """
        if (threads is None) == (processes is None):
            raise ValueError("pass exactly one of threads= / processes=")
        from concurrent.futures import (ProcessPoolExecutor,
                                        ThreadPoolExecutor)

        if threads is not None:
            pool = ThreadPoolExecutor(max_workers=threads)
            pool._repro_mode = "thread"
            return pool
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            # pragma: no cover - spawn-only platforms
            pool = ThreadPoolExecutor(max_workers=processes)
            pool._repro_mode = "thread"
            return pool
        global _WORKER_DB
        _WORKER_DB = self
        pool = ProcessPoolExecutor(
            max_workers=processes,
            mp_context=multiprocessing.get_context("fork"))
        pool._repro_mode = "process"
        pool._repro_db_id = id(self)
        return pool

    def _resolve_batch_pool(self, threads: Optional[int],
                            processes: Optional[int], executor):
        """Pick the batch execution mode: ``("inline"|"thread"|"process",
        pool, own_pool)``.  Validates reused executors and falls back
        from processes to threads when ``fork`` is unavailable."""
        if executor is not None:
            if threads is not None or processes is not None:
                raise ValueError(
                    "pass either executor= or threads=/processes=, "
                    "not both")
            from concurrent.futures import ProcessPoolExecutor

            mode = getattr(executor, "_repro_mode", None)
            if mode is None:
                mode = ("process"
                        if isinstance(executor, ProcessPoolExecutor)
                        else "thread")
            if mode == "process":
                if getattr(executor, "_repro_db_id", None) != id(self):
                    raise ValueError(
                        "process executors must come from this "
                        "database's batch_executor(processes=...) -- "
                        "workers fork holding a copy of the database")
            return mode, executor, False
        if threads is not None and processes is not None:
            raise ValueError("pass either threads= or processes=")
        if processes is not None and processes > 1:
            import multiprocessing

            if "fork" in multiprocessing.get_all_start_methods():
                return "process", None, True
            threads = processes  # pragma: no cover - spawn-only platforms
        if threads is not None and threads > 1:
            from concurrent.futures import ThreadPoolExecutor

            pool = ThreadPoolExecutor(max_workers=threads)
            pool._repro_mode = "thread"
            return "thread", pool, True
        return "inline", None, False

    def _run_batch_processes(self, pool, own_pool, processes, indexed,
                             semantics, k, algorithm, use_cache, deadline,
                             raise_on_error, errors, on_done):
        """Fan a batch out to forked workers and rehydrate the results.

        The parent re-records every successful query
        (`_record_query`), so latency histograms and join counters in
        the metrics registry equal a single-process run of the same
        batch; worker-side registries are forked copies and discarded.

        A worker crash (OOM kill, segfault) breaks the whole executor:
        every outstanding future raises `BrokenExecutor`, not just the
        one the dying worker held.  Rather than failing the batch, the
        crash is contained: the broken pool is replaced once and the
        affected queries re-run *one at a time* on the fresh pool, so a
        second crash implicates exactly one query -- that query (and
        any still queued behind it) becomes a typed `WorkerCrashError`
        entry in ``errors`` while the rest of the batch completes
        normally.  Under ``raise_on_error`` the crash propagates as
        `WorkerCrashError` instead.  A caller-owned executor that
        breaks is left to its owner; victims are rescued on a
        temporary pool of the same width.
        """
        global _WORKER_DB
        _WORKER_DB = self
        from concurrent.futures import BrokenExecutor

        def fresh_pool():
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            width = processes or getattr(pool, "_max_workers", 1) or 1
            return ProcessPoolExecutor(
                max_workers=width,
                mp_context=multiprocessing.get_context("fork"))

        if pool is None:
            pool = fresh_pool()
        columnar = self.columnar_index
        triples = [None] * len(indexed)

        def absorb(index, terms, light, stats, elapsed_ms, exc):
            if exc is not None:
                if raise_on_error:
                    raise exc
                if isinstance(exc, DeadlineExceeded):
                    self.metrics.counter(
                        "repro_deadline_hits_total",
                        {"outcome": "error"}).inc()
                self.metrics.counter(
                    "repro_batch_query_errors_total").inc()
                errors[index] = exc
                triples[index] = (None, ExecutionStats(), 0.0)
                return
            results = [
                SearchResult(columnar.node_at(level, number), level,
                             score, witnesses)
                for level, number, score, witnesses in light]
            if use_cache and not stats.cache_hits:
                # Mirror the worker's put into the parent cache so
                # later batches (any mode) see the warm entry.
                self.cache.put_results(
                    result_key(terms, semantics, algorithm, k),
                    results, partial=stats.partial)
            if stats.partial:
                self.metrics.counter("repro_deadline_hits_total",
                                     {"outcome": "partial"}).inc()
            self._record_query("batch", terms, semantics, algorithm,
                               k, elapsed_ms, stats, None)
            triples[index] = (results, stats, elapsed_ms)

        def submit(target, index, query):
            return target.submit(
                _process_batch_worker,
                (index, query, semantics, k, algorithm, use_cache,
                 deadline))

        try:
            futures = [submit(pool, index, query)
                       for index, query in indexed]
            victims = []
            for future, (index, query) in zip(futures, indexed):
                try:
                    payload = future.result()
                except BrokenExecutor:
                    # Pool-level death dooms every sibling future too.
                    # Defer on_done: each victim completes exactly once
                    # below, via rerun or typed error.
                    victims.append((index, query))
                    continue
                on_done()
                absorb(*payload)
            if victims:
                if raise_on_error:
                    raise WorkerCrashError(
                        "batch worker crashed; %d queries lost with it"
                        % len(victims))
                self.metrics.counter(
                    "repro_batch_pool_rebuilds_total").inc()
                rescue = fresh_pool()
                if own_pool:
                    pool.shutdown(wait=False)
                    pool = rescue  # the outer finally closes it
                poisoned = False
                try:
                    for index, query in victims:
                        exc = payload = None
                        if poisoned:
                            exc = WorkerCrashError(
                                "skipped: an earlier retry crashed the "
                                "rebuilt batch pool", query_index=index)
                        else:
                            try:
                                payload = submit(rescue, index,
                                                 query).result()
                            except BrokenExecutor:
                                poisoned = True
                                exc = WorkerCrashError(
                                    "query crashed the rebuilt batch "
                                    "pool", query_index=index)
                        on_done()
                        if exc is not None:
                            absorb(index, None, None, ExecutionStats(),
                                   0.0, exc)
                        else:
                            absorb(*payload)
                finally:
                    if not own_pool:
                        rescue.shutdown(wait=True)
            return triples
        finally:
            if own_pool:
                pool.shutdown(wait=True)

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

        tracer = None
        if trace:
            tracer = Tracer()
        elif self.tracer.enabled:
            tracer = self.tracer
        return _explain(self.columnar_index, self._terms(query), semantics,
                        planner, tracer=tracer, analyze=analyze,
                        shadow=shadow, estimator=estimator)

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
                      trace_root: Optional[Span],
                      phases: Optional[Dict[str, float]] = None) -> None:
        """Publish one finished query into metrics and the slow log."""
        metrics = self.metrics
        metrics.counter("repro_queries_total", {"op": op}).inc()
        metrics.histogram("repro_query_latency_ms",
                          {"op": op}).observe(elapsed_ms)
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
                stats_dict, trace_root,
                phases=phases)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def cache_stats(self) -> Dict[str, Dict[str, int]]:
        """Hit/miss/eviction counters of the postings and result caches."""
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
