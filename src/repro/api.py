"""Public facade: `XMLDatabase` and `Query`.

One object bundles the tree, both index families and every algorithm::

    from repro import XMLDatabase

    db = XMLDatabase.from_xml_text(open("bib.xml").read())
    for r in db.search("xml data", semantics="elca"):
        print(r.node.tag, r.node.dewey, r.score)

    top = db.search_topk("xml keyword search", k=10)

A database is its document's bytes and the node table parsed from them
(`repro.xmltree.nodetable`), built with the columnar index on first
use; the Dewey posting lists the baselines read are a per-term view of
it (`repro.index.inverted`), materialized the first time a term is
asked for.  Every answer's node is a row of the table.  `tree` parses
the document into `Node`s only when something needs objects (the
oracle, `to_xml`, JDewey maintenance).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .algorithms.base import (ELCA, EmptyResultError, ExecutionStats,
                              ResultSet, TopKResult, check_semantics,
                              sort_by_score)
from .obs.account import accounting, fold_into_stats
from .obs.tracing import NULL_TRACER, Tracer, span
from .algorithms.hybrid import HybridTopKSearch
from .algorithms.index_based import IndexBasedSearch
from .algorithms.join_based import JoinBasedSearch
from .algorithms.oracle import SemanticsOracle
from .algorithms.rdil import RDILSearch
from .algorithms.stack_based import StackBasedSearch
from .algorithms.topk_keyword import TopKKeywordSearch
from .reliability.deadline import Deadline
from .index.columnar import ColumnarIndex
from .index.inverted import InvertedIndex
from .index.tokenizer import Tokenizer
from .scoring.ranking import RankingModel
from .xmltree.jdewey import JDeweyEncoder
from .xmltree.nodetable import NodeTable, parse_tree
from .xmltree.parser import parse_xml
from .xmltree.tree import XMLTree

ALGORITHMS = ("join", "stack", "index", "oracle")
TOPK_ALGORITHMS = ("hybrid", "topk-join", "rdil", "join")


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
      in the batch (every failure is isolated).  A failed
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


class BatchSearch:
    """`search_batch` over a class's own `search` and `search_topk`:
    one sequential loop for `XMLDatabase` and `ShardedDatabase` alike."""

    def search_batch(self, queries: Sequence[Union[str, Sequence[str],
                                                   Query]],
                     semantics: str = ELCA,
                     k: Optional[int] = None,
                     algorithm: Optional[str] = None,
                     with_stats: bool = False,
                     deadline: Optional[Union[Deadline, float]] = None,
                     timeout_ms: Optional[float] = None,
                     on_deadline: Optional[str] = None) -> BatchResult:
        """Evaluate many queries, one after another: `search` each
        (``k=None``, the default; ``algorithm`` defaults to ``join``) or
        `search_topk` each (``k`` set; ``algorithm`` defaults to
        ``hybrid``).  Each entry of the returned list is the query's
        `ResultSet` -- document order, or best-first truncated -- or,
        with ``with_stats=True``, a ``(results, ExecutionStats)`` pair.

        The library evaluates one query at a time; to evaluate in
        parallel, serve the database with ``repro serve --workers N``
        (`docs/SERVING.md`).

        The returned list is a `BatchResult`: it additionally carries
        ``summary`` (every per-query `ExecutionStats` merged),
        ``latencies_ms`` and ``elapsed_ms``, so callers never fold stats
        by hand.  One failing query does not lose the batch: its slot
        holds ``None`` (or ``(None, stats)``), the exception lands in
        ``BatchResult.errors`` keyed by query index.

        ``deadline`` / ``timeout_ms`` / ``on_deadline`` set one shared
        budget for the whole batch: every query checks the same clock,
        so once it expires the remaining deadline-aware queries either
        raise (isolated into ``errors``) or return partial results, per
        the policy.
        """
        check_semantics(semantics)
        deadline = Deadline.coerce(deadline, timeout_ms, on_deadline)
        if algorithm is None:
            algorithm = "join" if k is None else "hybrid"
        batch = BatchResult()
        batch.summary = ExecutionStats()
        batch.latencies_ms = []
        batch.errors = {}
        batch_start = time.perf_counter()
        for index, query in enumerate(queries):
            start = time.perf_counter()
            try:
                if k is None:
                    results, stats = self.search(
                        query, semantics, algorithm, deadline=deadline,
                        with_stats=True)
                else:
                    top = self.search_topk(query, k, semantics, algorithm,
                                           deadline=deadline)
                    results, stats = top.results, top.stats
                elapsed_ms = (time.perf_counter() - start) * 1000.0
                batch.summary.merge(stats)
            except Exception as exc:
                batch.errors[index] = exc
                results, stats, elapsed_ms = None, ExecutionStats(), 0.0
            batch.append((results, stats) if with_stats else results)
            batch.latencies_ms.append(elapsed_ms)
        batch.elapsed_ms = (time.perf_counter() - batch_start) * 1000.0
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


class XMLDatabase(BatchSearch):
    """An indexed XML document plus every search algorithm.

    Every query is evaluated fresh: the library keeps no result cache
    (the serving daemon keeps the one there is, `docs/SERVING.md`).

    Observability (`repro.obs`): every query's time and work are on its
    `ExecutionStats`; pass a live `Tracer` as ``tracer`` to record
    per-query span trees (the default `NullTracer` records nothing).
    """

    def __init__(self, tree: Optional[XMLTree],
                 tokenizer: Optional[Tokenizer] = None,
                 ranking: Optional[RankingModel] = None,
                 jdewey_gap: int = 0,
                 tracer=None):
        if tree is not None and not tree.frozen:
            tree.freeze()
        # `repro.diskdb` passes no tree and installs `_open_tree`, the
        # loader `tree` calls on first use.
        self._tree = tree
        self._open_tree = None
        self.jdewey_gap = jdewey_gap
        self._encoder: Optional[JDeweyEncoder] = None
        self.tokenizer = tokenizer if tokenizer is not None else Tokenizer()
        self.ranking = ranking if ranking is not None else RankingModel()
        self.tracer = tracer if tracer is not None else NULL_TRACER
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

        return cls(DBLPGenerator(seed=seed, n_papers=n_papers).generate(),
                   **kwargs)

    @classmethod
    def generate_xmark(cls, seed: int = 7, scale: float = 0.01,
                       **kwargs) -> "XMLDatabase":
        """A synthetic XMark-like database (see `repro.datagen.xmark`)."""
        from .datagen.xmark import XMarkGenerator

        return cls(XMarkGenerator(seed=seed, scale=scale).generate(),
                   **kwargs)

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
        """The document, its `Node`s numbered like the node table."""
        if self._tree is None:
            self._tree = self._open_tree()
        elif self._columnar is None:
            self.columnar_index          # numbers the nodes
        return self._tree

    @property
    def encoder(self) -> JDeweyEncoder:
        """JDewey maintenance over `tree` (paper section III-A), from the
        node table's numbers."""
        if self._encoder is None:
            self._encoder = JDeweyEncoder(self.tree, gap=self.jdewey_gap,
                                          table=self.columnar_index.nodes)
        return self._encoder

    @property
    def columnar_index(self) -> ColumnarIndex:
        if self._columnar is None:
            parsed = self._tree.take_parsed()
            table = NodeTable.from_parsed(parsed, gap=self.jdewey_gap)
            self._tree.number(table.number)
            self._columnar = self._index(table, parsed)
        return self._columnar

    def _index(self, table: NodeTable, parsed) -> ColumnarIndex:
        """The index over the texts of `parsed`, whose table `table` is."""
        table._open_tree = lambda: self.tree
        return ColumnarIndex(table, self.tokenizer, self.ranking, parsed)

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
        `refresh`: the tree is re-frozen and serialized, and the node
        table and the index are rebuilt from those bytes, keeping every
        JDewey number the nodes carry.
        """
        self._columnar = self._index(*parse_tree(self.tree.freeze()))
        self._inverted = None

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------

    def search(self, query: Union[str, Sequence[str], Query],
               semantics: str = ELCA, algorithm: str = "join",
               strict: bool = False,
               use_cache: bool = True,
               deadline: Optional[Union[Deadline, float]] = None,
               timeout_ms: Optional[float] = None,
               on_deadline: Optional[str] = None,
               with_stats: bool = False):
        """Complete result set, in document order.

        ``algorithm`` is one of ``join`` (the paper's join-based
        algorithm, default), ``stack``, ``index`` (the two baselines) or
        ``oracle`` (the naive reference evaluation).  With
        ``strict=True`` a query term absent from the corpus raises
        `EmptyResultError` instead of silently returning no results.
        ``use_cache`` is accepted and ignored: there is no library
        result cache.  `benchmarks/e2e` (which only a benchmark change
        edits) and `benchmarks/identity.py` (which also runs against
        parents that still cache) pass ``use_cache=False``; the keyword
        goes when the benchmark stops passing it.

        A query budget (`docs/RELIABILITY.md`) is set with ``deadline``
        (a `repro.reliability.Deadline` or a number of milliseconds) or
        the ``timeout_ms`` convenience kwarg; ``on_deadline`` picks the
        expiry policy -- ``"raise"`` (default, `DeadlineExceeded`) or
        ``"partial"`` (return what the evaluated levels proved, with
        ``stats.partial`` set -- pass ``with_stats=True`` to see it;
        partial results are always a subset of the unbounded run's).
        Budgets are enforced on the ``join`` path; the in-memory
        baselines ignore them.

        Returns the result list, or ``(results, stats)`` with
        ``with_stats=True``.
        """
        check_semantics(semantics)
        deadline = Deadline.coerce(deadline, timeout_ms, on_deadline)
        results, stats = self._run_query(
            "search", query, semantics, algorithm, strict=strict,
            deadline=deadline)
        if with_stats:
            return results, stats
        return results

    def _run_query(self, op: str, query, semantics: str, algorithm: str,
                   k: Optional[int] = None, *, strict: bool = False,
                   deadline: Optional[Deadline] = None):
        """The per-query sequence behind `search` (``op="search"``) and
        `search_topk` (``"topk"``): parse, then evaluation under a
        resource account.

        Returns ``(answer, stats)``.  ``answer`` is the `ResultSet`, or
        the `TopKResult` (bound and flags intact) when ``k`` is set.
        """
        tags = {} if op == "search" else {"k": k}
        # This root makes the tracer the thread's ambient one: the
        # engines and the disk index open their regions with `span`, as
        # below.
        with self.tracer.span("query", op=op, semantics=semantics,
                              algorithm=algorithm, **tags) as qspan:
            with span("parse"):
                terms = self._terms(query)
            qspan.tag(terms=list(terms))
            if strict:
                self._check_terms_exist(terms)
            if k is None:
                answer, stats = self._complete_results(
                    terms, semantics, algorithm, deadline=deadline)
            else:
                answer = self._topk_result(
                    terms, semantics, algorithm, k, deadline=deadline)
                stats = answer.stats
            if stats.partial:
                qspan.tag(partial=True)
        return answer, stats

    def _complete_results(self, terms: List[str], semantics: str,
                          algorithm: str,
                          deadline: Optional[Deadline] = None
                          ) -> Tuple[ResultSet, ExecutionStats]:
        """Complete-evaluation dispatch: `_run_query` and the daemon's
        shard workers call it.

        Evaluation runs under a fresh `ResourceAccount` whose totals
        fold into the returned stats -- per-query resource truth for
        every caller, always on.
        """
        with accounting() as account:
            results, stats = self._evaluate_complete(
                terms, semantics, algorithm, deadline)
        fold_into_stats(stats, account)
        return results, stats

    def _evaluate_complete(self, terms: List[str], semantics: str,
                           algorithm: str,
                           deadline: Optional[Deadline] = None
                           ) -> Tuple[ResultSet, ExecutionStats]:
        if algorithm == "join":
            return JoinBasedSearch(self.columnar_index).evaluate(
                terms, semantics, deadline=deadline)
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
        ``on_deadline``, ...) forward to `search`.
        """
        return sort_by_score(self.search(query, semantics, algorithm,
                                         **kwargs))

    def search_topk(self, query: Union[str, Sequence[str], Query], k: int,
                    semantics: str = ELCA, algorithm: str = "hybrid",
                    strict: bool = False,
                    deadline: Optional[Union[Deadline, float]] = None,
                    timeout_ms: Optional[float] = None,
                    on_deadline: Optional[str] = None) -> TopKResult:
        """Top-`k` results, best first.

        ``algorithm`` is one of ``hybrid`` (default, section V-D: the
        top-K driver with every level finished in bulk), ``topk-join``
        (the paper's rank join per level), ``rdil`` (the TA-style
        baseline) or ``join`` (evaluate everything, then truncate -- the
        "general join-based" line of Figure 10).

        ``deadline`` / ``timeout_ms`` / ``on_deadline`` set a query
        budget (`docs/RELIABILITY.md`), enforced on the ``hybrid``,
        ``topk-join`` and ``join`` paths at level boundaries and disk
        column fetches -- ``topk-join`` also after every rank-join block
        -- and not on ``rdil``.  Under the ``partial`` policy an expired
        run returns the prefix proven so far: ``TopKResult.partial`` is
        set and ``TopKResult.bound`` is the guarantee gap -- no result
        the run did not return can score above it.
        """
        check_semantics(semantics)
        deadline = Deadline.coerce(deadline, timeout_ms, on_deadline)
        top, _stats = self._run_query("topk", query, semantics, algorithm,
                                      k, strict=strict, deadline=deadline)
        return top

    def _topk_result(self, terms: List[str], semantics: str, algorithm: str,
                     k: int,
                     deadline: Optional[Deadline] = None) -> TopKResult:
        """Top-K dispatch (`_run_query`, the daemon's shard workers),
        accounted the same way as `_complete_results`."""
        with accounting() as account:
            top = self._evaluate_topk(terms, semantics, algorithm, k,
                                      deadline=deadline)
        fold_into_stats(top.stats, account)
        return top

    def _evaluate_topk(self, terms: List[str], semantics: str,
                       algorithm: str, k: int,
                       deadline: Optional[Deadline] = None) -> TopKResult:
        if algorithm in ("hybrid", "topk-join"):
            engine = (HybridTopKSearch if algorithm == "hybrid"
                      else TopKKeywordSearch)(self.columnar_index)
            return engine.search(terms, k, semantics, deadline=deadline)
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

    def search_stream(self, query: Union[str, Sequence[str], Query],
                      semantics: str = ELCA,
                      deadline: Optional[Union[Deadline, float]] = None,
                      timeout_ms: Optional[float] = None,
                      on_deadline: Optional[str] = None):
        """Yield results best-first, lazily (progressive top-K).

        The default top-K plan (``hybrid``) as a generator: each
        ``next()`` advances the bottom-up levels only far enough to prove
        one more result safe; abandoning the generator abandons the
        remaining work.

        A ``deadline`` bounds the stream: under the ``raise`` policy an
        expired budget raises `DeadlineExceeded` from ``next()``; under
        ``partial`` the stream simply ends.  Results yielded before the
        cut are a prefix of the unbounded stream either way.  It is
        polled where every query polls it, disk column decodes included:
        the level loop installs the thread-local scope around each column
        fetch and lifts it before any ``yield``, so nothing leaks into
        the consumer's unrelated queries between ``next()`` calls.
        """
        deadline = Deadline.coerce(deadline, timeout_ms, on_deadline)
        return HybridTopKSearch(self.columnar_index,
                                tracer=self.tracer).stream(
            self._terms(query), semantics, deadline=deadline)

    def explain(self, query: Union[str, Sequence[str], Query],
                semantics: str = ELCA,
                trace: bool = False):
        """Per-level trace of the join-based evaluation (a `QueryPlan`).

        Shows the dynamic optimization at work: column and distinct
        sizes and the merge/index join chosen at each level (paper
        section III-C).  With ``trace=True`` (or when the
        database runs with a live tracer) the plan also carries the
        span tree of the evaluation (``plan.trace``), rendered by
        ``plan.format()``.
        """
        from .algorithms.explain import explain as _explain

        return _explain(self.columnar_index, self._terms(query), semantics,
                        tracer=Tracer() if trace else self.tracer)

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
    # introspection
    # ------------------------------------------------------------------

    def document_frequency(self, term: str) -> int:
        return self.columnar_index.document_frequency(term.lower())

    def __len__(self) -> int:
        return len(self.columnar_index.nodes)

    @property
    def depth(self) -> int:
        """Maximum level over all nodes (root = 1)."""
        return self.columnar_index.nodes.depth

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<XMLDatabase nodes={len(self)} depth={self.depth}>"
