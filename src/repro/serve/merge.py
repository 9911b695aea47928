"""Exact cross-shard merging: the root protocol and `ShardedDatabase`.

Subtree-affine partitioning (`repro.serve.sharding`) makes every result
at level >= 2 shard-local, so merging shard answers is mostly a sorted
union.  The one node whose evaluation genuinely spans shards is the
document root, and this module reconstructs it exactly from per-shard
summaries instead of shipping postings around:

*Root protocol.*  At root evaluation an occurrence is erased if and
only if its level-2 ancestor is a C-node (a root child whose subtree
contains every query term): containment is monotone up the tree, so a
C-node at any deeper level forces its level-2 ancestor to be one too,
and the range rule then erases the whole subtree's occurrences.
Root-level occurrences (length-1 sequences) have no level-2 ancestor
and are never erased.  Because a level-2 subtree's occurrences live in
exactly one shard, each shard can decide *locally* which of its level-2
children are C-nodes and what the best surviving ("free") damped score
per term is.  `compute_root_info` extracts that summary from one
column-2 decompression per term; `merge_root` folds the summaries:

* ELCA -- the root qualifies iff every term keeps a free occurrence
  somewhere; its witness per term is the max free damped score across
  shards.
* SLCA -- the root qualifies iff every term occurs and *no* shard has
  a C-node (any deeper LCA would disqualify the root); with no C-nodes
  every occurrence is free, so the same witnesses apply.

`ShardedDatabase` wraps N per-shard `XMLDatabase` objects (sharing one
node table and document, each with its filtered postings) behind the
`search` / `search_topk` / `search_stream` / `search_batch` surface.
Top-K runs as a rank join over the per-shard best-first streams: each
stream is pulled only while it holds the globally best head, so
consuming k results does only the per-shard work k results need.  Only
the join-family algorithms are served: a baseline's Dewey lists derive
from one shard's postings, so it answers for that shard alone
(``db.shards[i].search(..., algorithm="stack")``) and has no
cross-shard merge.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Union

import numpy as np

from ..algorithms.base import (ELCA, SLCA, EmptyResultError, ExecutionStats,
                               ResultSet, SearchResult, TopKResult,
                               check_semantics, sort_by_document_order)
from ..algorithms.topk_keyword import TopKKeywordSearch, _StreamState
from ..cache import QueryCache, result_key
from ..obs.account import accounting, fold_into_stats
from ..reliability.deadline import Deadline
from ..scoring.ranking import RankingModel

_EXHAUSTED = object()


@dataclass
class RootInfo:
    """One shard's contribution to the root result.

    ``present`` -- query terms with at least one occurrence in the
    shard; ``has_ca`` -- whether any of the shard's level-2 children
    contains *all* query terms (a C-node); ``free_max`` -- per term,
    the best damped-at-root score over occurrences not erased by a
    C-node (absent when the term has no free occurrence here).
    """

    present: FrozenSet[str]
    has_ca: bool = False
    free_max: Dict[str, float] = field(default_factory=dict)


def compute_root_info(index, terms: Sequence[str],
                      ranking: RankingModel) -> RootInfo:
    """Summarize one shard's postings for the root protocol.

    Touches only per-term ``lengths`` / ``scores`` (decoded at block
    parse) and column 2, so against a disk index the cost is one
    column decompression per term -- far below a full join.
    """
    unique = list(dict.fromkeys(terms))
    present = frozenset(t for t in unique if t in index)
    if not present:
        return RootInfo(present)
    postings = {t: index.term_postings(t) for t in present}
    # Level-2 C-nodes: root children whose subtree has every term.  A
    # shard missing any term has none (its subtrees hold the whole of
    # their occurrence sets, so absence here is absence, full stop).
    ca = np.empty(0, dtype=np.int64)
    if len(present) == len(unique):
        ca = postings[unique[0]].column(2).distinct
        for term in unique[1:]:
            if not len(ca):
                break
            ca = np.intersect1d(ca, postings[term].column(2).distinct,
                                assume_unique=True)
    free_max: Dict[str, float] = {}
    for term in present:
        plist = postings[term]
        lengths = np.asarray(plist.lengths, dtype=np.int64)
        scores = np.asarray(plist.scores, dtype=np.float64)
        if not len(lengths):
            continue
        factors = np.asarray([ranking.damping(delta)
                              for delta in range(int(lengths.max()))])
        damped = scores * factors[lengths - 1]
        if len(ca):
            column2 = plist.column(2)
            level2 = np.full(len(lengths), -1, dtype=np.int64)
            level2[column2.seq_idx] = column2.values
            free = (lengths == 1) | ~np.isin(level2, ca)
        else:
            free = np.ones(len(lengths), dtype=bool)
        if free.any():
            free_max[term] = float(damped[free].max())
    return RootInfo(present, has_ca=bool(len(ca)), free_max=free_max)


def merge_root(infos: Sequence[RootInfo], terms: Sequence[str],
               semantics: str, ranking: RankingModel,
               root) -> Optional[SearchResult]:
    """Fold per-shard summaries into the global result for the document
    root, the node `root` (or None).

    Exact by the erasure invariant in the module docstring; witnesses
    come out aligned with the caller's term order, matching the
    engines' `SearchResult.witness_scores` contract.
    """
    required = set(terms)
    covered = set()
    for info in infos:
        covered |= info.present
    if not required <= covered:
        return None
    if semantics == SLCA and any(info.has_ca for info in infos):
        return None
    witnesses: Dict[str, float] = {}
    for info in infos:
        for term, value in info.free_max.items():
            if value > witnesses.get(term, float("-inf")):
                witnesses[term] = value
    if not required <= set(witnesses):
        # Every occurrence of some term sits under a C-node: the root's
        # erased view no longer covers the query (ELCA only -- SLCA
        # bailed out above on the C-node itself).
        return None
    per_keyword = [witnesses[t] for t in terms]
    return SearchResult(root, 1,
                        score=ranking.score_result(per_keyword),
                        witness_scores=tuple(per_keyword))


def gather(table, n_terms: int, parts: Sequence[ResultSet],
           root: Optional[SearchResult], k: Optional[int] = None,
           bound: Optional[float] = None) -> ResultSet:
    """Merge shard answers (each already without its shard-local root)
    and the reconstructed `root` into the global answer: document order
    when ``k`` is ``None``, else the best ``k`` -- of those scoring
    above ``bound`` when shards stopped early or were skipped, since a
    result they never returned can score up to it."""
    parts = list(parts)
    if root is not None:
        parts.append(ResultSet.of(table, [root]))
    merged = ResultSet.concat(table, parts, n_terms)
    if k is None:
        return sort_by_document_order(merged)
    if bound is not None:
        merged = merged.take(merged.scores > bound)
    return merged.top(k)


class ShardedDatabase:
    """N subtree-affine shards behind the single-database search API.

    Construction does not copy the tree: every shard `XMLDatabase`
    references the same node table (and the same document, parsed on
    first use), only the postings differ.  ``tree`` may be ``None`` for
    shards opened from disk; `tree` then defers to theirs.
    The facade carries its own result `QueryCache` for merged answers.

    Supported algorithms are the join family -- ``join`` for complete
    evaluation, ``topk-join`` for top-K.  The baselines (``stack`` /
    ``index`` / ``oracle`` / ``rdil``) have no cross-shard merge, so
    they are rejected instead of answered wrongly.
    """

    def __init__(self, tree, shard_dbs: Sequence, manifest: Optional[dict] = None,
                 cache: Optional[QueryCache] = None,
                 result_cache_size: int = 1024):
        if not shard_dbs:
            raise ValueError("a sharded database needs at least one shard")
        self._tree = tree
        self.shards = list(shard_dbs)
        self.manifest = dict(manifest) if manifest else {
            "count": len(self.shards), "strategy": "root-child-mod"}
        first = self.shards[0]
        self.tokenizer = first.tokenizer
        self.ranking = first.ranking
        self.metrics = first.metrics
        self.cache = cache if cache is not None else QueryCache(
            result_cache_size)
        if self.cache.metrics is None:
            self.cache.bind_metrics(self.metrics)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_database(cls, db, n_shards: int, **kwargs) -> "ShardedDatabase":
        """Partition a built `XMLDatabase` in memory (no disk roundtrip).

        The shard databases receive in-memory columnar indexes
        built from the filtered postings; scores are the global ones
        already baked into ``db.columnar_index``.
        """
        from ..api import XMLDatabase
        from ..index.columnar import ColumnarIndex
        from .sharding import partition_columnar

        source = db.columnar_index
        postings = {t: source.term_postings(t) for t in source.vocabulary}
        parts = partition_columnar(postings, db.tree, n_shards)
        shard_dbs = []
        for part in parts:
            sdb = XMLDatabase(db.tree, tokenizer=db.tokenizer,
                              ranking=db.ranking, metrics=db.metrics)
            sdb._columnar = ColumnarIndex.from_postings(
                source.nodes, part, db.tokenizer, db.ranking, source.n_docs)
            shard_dbs.append(sdb)
        return cls(db.tree, shard_dbs, **kwargs)

    @classmethod
    def open(cls, path: str, **kwargs) -> "ShardedDatabase":
        """Open a sharded database directory (`save_database(shards=N)`)."""
        from ..diskdb import load_database

        db = load_database(path, **kwargs)
        if not isinstance(db, cls):
            raise ValueError(f"{path!r} is not sharded "
                             "(its meta.json has no shard manifest)")
        return db

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    @property
    def tree(self):
        return self._tree if self._tree is not None else self.shards[0].tree

    @property
    def nodes(self):
        """The node table every shard shares: a shard's result rows
        are valid in the facade as they are."""
        return self.shards[0].columnar_index.nodes

    def __len__(self) -> int:
        return len(self.shards[0])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<ShardedDatabase shards={self.n_shards} "
                f"nodes={len(self)}>")

    # ------------------------------------------------------------------
    # shard selection
    # ------------------------------------------------------------------

    def _terms(self, query) -> List[str]:
        return self.shards[0]._terms(query)

    def _check_terms_exist(self, terms: Sequence[str]) -> None:
        missing = [t for t in terms
                   if not any(t in db.columnar_index for db in self.shards)]
        if missing:
            raise EmptyResultError(
                f"query terms with no occurrences: {missing}")

    def _covered(self, terms: Sequence[str]) -> bool:
        """Every term occurs somewhere (else the result set is empty,
        as it is for a query of no terms at all)."""
        return bool(terms) and all(
            any(t in db.columnar_index for db in self.shards)
            for t in terms)

    def _qualifying(self, terms: Sequence[str]) -> List:
        """Shards that can hold results below the root: a level >= 2
        result's subtree is entirely inside one shard, so a shard
        missing any term is pruned with O(1) vocabulary tests -- the
        scatter never touches its postings."""
        return [db for db in self.shards
                if all(t in db.columnar_index for t in terms)]

    def _touched(self, terms: Sequence[str]) -> List:
        """Shards holding at least one query term: they contribute root
        witnesses even when pruned from the subtree scatter."""
        return [db for db in self.shards
                if any(t in db.columnar_index for t in terms)]

    def _root_result(self, terms: Sequence[str],
                     semantics: str) -> Optional[SearchResult]:
        infos = [compute_root_info(db.columnar_index, terms, self.ranking)
                 for db in self._touched(terms)]
        return merge_root(infos, terms, semantics, self.ranking,
                          self.nodes.root)

    # ------------------------------------------------------------------
    # complete evaluation
    # ------------------------------------------------------------------

    def search(self, query, semantics: str = ELCA, algorithm: str = "join",
               strict: bool = False, use_cache: bool = True,
               deadline: Optional[Union[Deadline, float]] = None,
               timeout_ms: Optional[float] = None,
               on_deadline: Optional[str] = None,
               with_stats: bool = False):
        """Complete result set in document order -- same contract as
        `XMLDatabase.search`, scatter-gathered across the shards.

        Under a ``partial`` deadline each shard returns what its
        evaluated levels proved; the union is returned with
        ``stats.partial`` set and the root is skipped unless the budget
        survived to compute it (a partial union stays a subset of the
        unbounded run's results either way).
        """
        check_semantics(semantics)
        if algorithm != "join":
            raise ValueError(
                "a sharded database serves algorithm='join' for complete "
                f"evaluation, not {algorithm!r} (the in-memory baselines "
                "would re-index the full tree and ignore the shards)")
        deadline = Deadline.coerce(deadline, timeout_ms, on_deadline)
        terms = self._terms(query)
        if strict:
            self._check_terms_exist(terms)
        key = result_key(terms, semantics, algorithm, None)
        stats = ExecutionStats()
        if use_cache:
            cached = self.cache.get_results(key)
            if cached is not None:
                stats.cache_hits = 1
                return (cached, stats) if with_stats else cached
        table = self.nodes
        results = ResultSet.empty(table, len(terms))
        if self._covered(terms):
            # The shard calls account themselves (their nested account
            # shadows this one); this account catches the root
            # protocol's column touches, which run in the facade.
            with accounting() as account:
                parts = []
                for db in self._qualifying(terms):
                    shard_results, shard_stats = db._complete_results(
                        terms, semantics, "join", deadline=deadline)
                    stats += shard_stats
                    parts.append(shard_results.below_root())
                if deadline is not None and deadline.expired():
                    # partial policy (raise would have thrown above): the
                    # root summary is cheap but unbudgeted work; skip it.
                    stats.partial = True
                    root = None
                else:
                    root = self._root_result(terms, semantics)
                results = gather(table, len(terms), parts, root)
            fold_into_stats(stats, account)
        if use_cache:
            self.cache.put_results(key, results, partial=stats.partial)
            stats.cache_misses += 1
        return (results, stats) if with_stats else results

    # ------------------------------------------------------------------
    # top-K / streaming
    # ------------------------------------------------------------------

    def _merged_stream(self, terms: Sequence[str], semantics: str,
                       stats: ExecutionStats, state: _StreamState,
                       target_k: int = 2 ** 30,
                       deadline: Optional[Deadline] = None):
        """Rank-join over per-shard best-first streams.

        Classic k-way merge with lazy pulls: a shard's stream advances
        only while its head is the global best, so a shard whose best
        remaining score cannot enter the global top-K is never pulled
        again -- that is the issue's "stop pulling from a shard" rule,
        enforced structurally rather than by an explicit bound check.

        Per-shard deadline partials fold into one consistent guarantee:
        when a shard stops early with bound ``b``, every unseen result
        of that shard scores <= ``b``, so the merge may only emit heads
        scoring > max partial bound; the first head at or below it ends
        the stream with ``state.partial`` set and ``state.bound`` the
        max bound.  Shard-local level-1 results are dropped (a shard
        sees only its slice of the root's occurrences) and replaced by
        the exact `merge_root` reconstruction, budgeted one extra slot
        in ``target_k``.
        """
        if not self._covered(terms):
            state.finished = True
            return
        shard_states: List[_StreamState] = []
        streams = []
        for db in self._qualifying(terms):
            shard_state = _StreamState()
            shard_states.append(shard_state)
            engine = TopKKeywordSearch(db.columnar_index, tracer=db.tracer)
            raw = engine.stream(terms, semantics, stats=stats,
                                target_k=min(target_k + 1, 2 ** 30),
                                _state=shard_state, deadline=deadline)
            streams.append(filter(lambda r: r.level > 1, raw))
        partial_bound: Optional[float] = None

        def note_exhausted(shard_state: _StreamState) -> None:
            nonlocal partial_bound
            if shard_state.partial:
                bound = (shard_state.bound if shard_state.bound is not None
                         else float("inf"))
                if partial_bound is None or bound > partial_bound:
                    partial_bound = bound

        heap = []
        for idx, stream in enumerate(streams):
            head = next(stream, _EXHAUSTED)
            if head is _EXHAUSTED:
                note_exhausted(shard_states[idx])
            else:
                heapq.heappush(heap, ((-head.score, head.node.dewey),
                                      idx, head))
        root = self._root_result(terms, semantics)
        if root is not None:
            heapq.heappush(heap, ((-root.score, root.node.dewey), -1, root))
        emitted = 0
        while heap:
            _key, idx, result = heapq.heappop(heap)
            if partial_bound is not None and result.score <= partial_bound:
                state.partial = True
                state.bound = partial_bound
                return
            yield result
            emitted += 1
            if emitted >= target_k:
                return
            if idx >= 0:
                head = next(streams[idx], _EXHAUSTED)
                if head is _EXHAUSTED:
                    note_exhausted(shard_states[idx])
                else:
                    heapq.heappush(heap, ((-head.score, head.node.dewey),
                                          idx, head))
        if partial_bound is not None:
            state.partial = True
            state.bound = partial_bound
        else:
            state.finished = True

    def search_topk(self, query, k: int, semantics: str = ELCA,
                    algorithm: str = "topk-join", strict: bool = False,
                    deadline: Optional[Union[Deadline, float]] = None,
                    timeout_ms: Optional[float] = None,
                    on_deadline: Optional[str] = None) -> TopKResult:
        """Top-`k` best-first across all shards -- same contract as
        `XMLDatabase.search_topk` with ``algorithm="topk-join"``.

        Complete runs match the unsharded engine result for result
        (ids, scores, order and ``bound``); a run cut by a ``partial``
        deadline keeps the engine guarantee -- every returned result is
        exact and nothing unreturned scores above ``bound`` -- and is
        conservatively marked partial even when k results were found.
        """
        check_semantics(semantics)
        if algorithm != "topk-join":
            raise ValueError(
                "a sharded database serves algorithm='topk-join' for "
                f"top-K, not {algorithm!r}")
        deadline = Deadline.coerce(deadline, timeout_ms, on_deadline)
        stats = ExecutionStats()
        terms = self._terms(query)
        if k <= 0:
            return TopKResult(ResultSet.empty(self.nodes, len(terms)), stats)
        if strict:
            self._check_terms_exist(terms)
        state = _StreamState()
        # The merged stream drives the shard engines directly (no
        # XMLDatabase entry point in between), so activate the account
        # here: per-shard column work and the root protocol both land
        # on this query's stats.
        with accounting() as account:
            generator = self._merged_stream(terms, semantics, stats, state,
                                            target_k=k, deadline=deadline)
            results = list(generator)
            generator.close()
        fold_into_stats(stats, account)
        stats.partial = state.partial
        return TopKResult(ResultSet.of(self.nodes, results), stats,
                          terminated_early=not state.finished,
                          partial=state.partial, bound=state.bound)

    def search_stream(self, query, semantics: str = ELCA,
                      deadline: Optional[Union[Deadline, float]] = None,
                      timeout_ms: Optional[float] = None,
                      on_deadline: Optional[str] = None):
        """Yield all results best-first, lazily, across the shards
        (`XMLDatabase.search_stream` contract)."""
        deadline = Deadline.coerce(deadline, timeout_ms, on_deadline)
        return self._merged_stream(self._terms(query),
                                   check_semantics(semantics),
                                   ExecutionStats(), _StreamState(),
                                   deadline=deadline)

    # ------------------------------------------------------------------
    # batch
    # ------------------------------------------------------------------

    def search_batch(self, queries: Sequence, semantics: str = ELCA,
                     k: Optional[int] = None,
                     algorithm: Optional[str] = None,
                     with_stats: bool = False,
                     use_cache: bool = True,
                     deadline: Optional[Union[Deadline, float]] = None,
                     timeout_ms: Optional[float] = None,
                     on_deadline: Optional[str] = None,
                     raise_on_error: bool = False):
        """Evaluate a workload sequentially against the shard set:
        `XMLDatabase.search_batch`'s contract (`BatchResult`, shared
        deadline, per-query error isolation, the ``repro_batch_*``
        metrics) through the same loop, `repro.api.run_batch`.  The
        parallel path for a sharded database is the daemon
        (`repro.serve.daemon`), whose workers fan out per shard.
        """
        from ..api import run_batch

        check_semantics(semantics)
        deadline = Deadline.coerce(deadline, timeout_ms, on_deadline)
        if algorithm is None:
            algorithm = "join" if k is None else "topk-join"

        def one(query):
            if k is None:
                return self.search(query, semantics, algorithm,
                                   use_cache=use_cache, deadline=deadline,
                                   with_stats=True)
            top = self.search_topk(query, k, semantics, algorithm,
                                   deadline=deadline)
            return top.results, top.stats

        return run_batch(queries, one, self.metrics, with_stats,
                         raise_on_error)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def cache_stats(self) -> Dict[str, Dict[str, int]]:
        return self.cache.stats()

    def clear_caches(self) -> None:
        """Drop the merged-result cache and every shard's caches (the
        daemon's index-reload hook)."""
        self.cache.clear()
        for db in self.shards:
            db.cache.clear()
