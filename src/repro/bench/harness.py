"""Benchmark harness: regenerates the paper's tables and figures.

The experiments (paper section V) run against synthetic DBLP and XMark
corpora scaled to laptop size.  Absolute numbers differ from the paper's
Java/2.4GHz/1GB setup by construction; the harness exists to check the
*shapes*: which algorithm wins in which regime, and where the crossovers
fall.  Every table/figure has one function returning printable rows, and
``python -m repro.bench.harness`` prints the whole evaluation section
(that output is the source of EXPERIMENTS.md).

Scaling note: the paper fixes the high frequency at 100k on a 496 MB
DBLP; we fix it at ``high_freq`` (default 4000) on a ~20k-paper corpus,
keeping the 10x-per-step low-frequency ladder, so every ratio the paper
varies is preserved.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..algorithms.base import ExecutionStats, sort_by_score
from ..algorithms.join_based import JoinBasedSearch
from ..api import XMLDatabase
from ..datagen.dblp import DBLPGenerator
from ..datagen.workload import QuerySpec, WorkloadBuilder
from ..datagen.xmark import XMarkGenerator
from ..index import storage
from ..planner.plans import JoinPlanner
from ..scoring.ranking import DampingFunction, RankingModel


@dataclass
class BenchConfig:
    """Corpus and workload scale for one harness run."""

    seed: int = 7
    # The workload builder has its own RNG stream; pinning it here
    # keeps reruns of the report on identical workloads across commits.
    workload_seed: int = 11
    n_papers: int = 20_000
    xmark_scale: float = 0.05
    high_freq: int = 4_000
    low_freqs: Tuple[int, ...] = (10, 100, 1_000, 4_000)
    per_cell: int = 2
    max_keywords: int = 5
    # Correlated queries mirror the paper's "sensor network" picks:
    # *frequent* keywords that co-occur, so complete evaluation has a lot
    # to chew on while top-K can stop after a handful of completions.
    correlated_entities: int = 2_500
    topk: int = 10
    # The paper only requires d(.) to be decreasing (0.9 in its worked
    # example).  Benchmarks use 0.8: with synthetic planted terms the
    # score spread is narrower than real tf-idf, and a slightly steeper
    # damping restores the level separation the top-K thresholds need.
    damping_base: float = 0.8

    @classmethod
    def small(cls) -> "BenchConfig":
        """A fast configuration for smoke runs and CI."""
        return cls(n_papers=3_000, xmark_scale=0.01, high_freq=600,
                   low_freqs=(10, 60, 600), correlated_entities=600)


class Workbench:
    """Lazily built corpora + workloads shared by all experiments."""

    def __init__(self, config: Optional[BenchConfig] = None):
        self.config = config if config is not None else BenchConfig()
        self.builder = WorkloadBuilder(
            high_freq=self.config.high_freq,
            low_freqs=self.config.low_freqs,
            per_cell=self.config.per_cell,
            max_keywords=self.config.max_keywords,
            correlated_entities=self.config.correlated_entities,
            seed=self.config.workload_seed)
        self._dblp: Optional[XMLDatabase] = None
        self._xmark: Optional[XMLDatabase] = None

    @property
    def dblp(self) -> XMLDatabase:
        if self._dblp is None:
            # Abstracts matter: with a single text node per paper, every
            # planted co-occurrence collapses into one node and damping
            # never comes into play (every result would sit at the
            # occurrence level, which flatters RDIL's undamped bound).
            tree = DBLPGenerator(seed=self.config.seed,
                                 n_papers=self.config.n_papers,
                                 abstract_words=12,
                                 plan=self.builder.plan()).generate()
            self._dblp = XMLDatabase.from_tree(tree,
                                               ranking=self._ranking())
        return self._dblp

    def _ranking(self) -> RankingModel:
        return RankingModel(
            damping=DampingFunction(self.config.damping_base))

    @property
    def xmark(self) -> XMLDatabase:
        if self._xmark is None:
            tree = XMarkGenerator(seed=self.config.seed,
                                  scale=self.config.xmark_scale,
                                  plan=self.builder.plan()).generate()
            self._xmark = XMLDatabase.from_tree(tree,
                                                ranking=self._ranking())
        return self._xmark

    def warm(self, db: XMLDatabase, queries: Sequence[QuerySpec]) -> None:
        """Build indexes and columns once, outside any timed region
        (the paper's experiments run on a hot cache)."""
        db.inverted_index
        index = db.columnar_index
        for spec in queries:
            for term in spec.terms:
                postings = index.term_postings(term)
                for level in range(1, postings.max_len + 1):
                    postings.column(level)


# ---------------------------------------------------------------------------
# timed runners
# ---------------------------------------------------------------------------

def make_engine(db: XMLDatabase, algorithm: str):
    """A complete-result engine for `algorithm` over `db`'s indexes."""
    from ..algorithms.index_based import IndexBasedSearch
    from ..algorithms.stack_based import StackBasedSearch

    if algorithm == "join":
        return JoinBasedSearch(db.columnar_index)
    if algorithm == "stack":
        return StackBasedSearch(db.inverted_index)
    if algorithm == "index":
        return IndexBasedSearch(db.inverted_index)
    raise ValueError(f"unknown complete-result algorithm {algorithm!r}")


def run_complete(db: XMLDatabase, queries: Sequence[QuerySpec],
                 algorithm: str, semantics: str = "elca",
                 with_scores: bool = False) -> int:
    """Evaluate every query's complete result set; returns result count.

    Wrap this in a timer / pytest-benchmark for the Figure 9 cells.
    Scores are off by default: the figure measures semantic evaluation,
    matching the baselines' original implementations.
    """
    total = 0
    for spec in queries:
        engine = make_engine(db, algorithm)
        results, _stats = engine.evaluate(list(spec.terms), semantics,
                                          with_scores=with_scores)
        total += len(results)
    return total


def run_topk(db: XMLDatabase, queries: Sequence[QuerySpec], algorithm: str,
             k: int, semantics: str = "elca") -> int:
    """Evaluate every query's top-k; returns result count."""
    total = 0
    for spec in queries:
        total += len(db.search_topk(list(spec.terms), k,
                                    semantics=semantics,
                                    algorithm=algorithm))
    return total


def timed(fn: Callable[[], object], repeats: int = 3) -> float:
    """Best-of-N wall time in milliseconds (used by the CLI report)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best * 1000.0


# ---------------------------------------------------------------------------
# Table I: index sizes
# ---------------------------------------------------------------------------

def table1_rows(bench: Workbench) -> List[Tuple[str, str, float]]:
    """(corpus, structure, KiB) rows for Table I."""
    rows: List[Tuple[str, str, float]] = []
    for name, db in (("DBLP", bench.dblp), ("XMark", bench.xmark)):
        report = storage.measure_sizes(db.columnar_index, db.inverted_index)
        for structure, size in report.as_rows():
            rows.append((name, structure, size / 1024.0))
    return rows


def check_table1_shape(rows: List[Tuple[str, str, float]]) -> List[str]:
    """The qualitative claims of Table I; returns violated claims."""
    problems = []
    for corpus in ("DBLP", "XMark"):
        sizes = {structure: kib for c, structure, kib in rows
                 if c == corpus}
        il = sizes["join-based IL"]
        if not sizes["index-based B-tree"] > 2 * sizes["stack-based IL"]:
            problems.append(f"{corpus}: B-tree not >> stack IL")
        if not il < 2 * sizes["stack-based IL"]:
            problems.append(f"{corpus}: join IL far larger than stack IL")
        if not il < sizes["top-K join IL"] < 2 * il:
            problems.append(f"{corpus}: top-K IL overhead out of range")
        if not sizes["RDIL B-tree"] > 0.5 * sizes["RDIL IL"]:
            problems.append(f"{corpus}: RDIL B-tree unexpectedly small")
    return problems


# ---------------------------------------------------------------------------
# Figure 9: complete-result query performance
# ---------------------------------------------------------------------------

FIG9_ALGORITHMS = ("join", "stack", "index")


def fig9_cells(bench: Workbench, n_keywords: int
               ) -> List[Tuple[int, List[QuerySpec]]]:
    """(low_frequency, queries) cells for one Figure 9 panel."""
    queries = bench.builder.frequency_sweep(n_keywords)
    cells: Dict[int, List[QuerySpec]] = {}
    for spec in queries:
        cells.setdefault(spec.low_frequency, []).append(spec)
    return sorted(cells.items())


def fig9_equal_cells(bench: Workbench, freq: int,
                     k_values: Sequence[int] = (2, 3, 4, 5)
                     ) -> List[Tuple[int, List[QuerySpec]]]:
    """(n_keywords, queries) cells for Figure 9(e)-(f)."""
    return [(k, bench.builder.equal_frequency(k, freq)) for k in k_values
            if k <= bench.config.max_keywords]


def fig9_rows(bench: Workbench, n_keywords: int,
              repeats: int = 3) -> List[Tuple[int, str, float]]:
    """(low_freq, algorithm, ms) rows for Figure 9(a)-(d)."""
    db = bench.dblp
    rows = []
    for low, queries in fig9_cells(bench, n_keywords):
        bench.warm(db, queries)
        for algorithm in FIG9_ALGORITHMS:
            ms = timed(lambda: run_complete(db, queries, algorithm),
                       repeats)
            rows.append((low, algorithm, ms / len(queries)))
    return rows


def fig9_equal_rows(bench: Workbench, freq: int,
                    repeats: int = 3) -> List[Tuple[int, str, float]]:
    """(n_keywords, algorithm, ms) rows for Figure 9(e)-(f)."""
    db = bench.dblp
    rows = []
    for k, queries in fig9_equal_cells(bench, freq):
        bench.warm(db, queries)
        for algorithm in FIG9_ALGORITHMS:
            ms = timed(lambda: run_complete(db, queries, algorithm),
                       repeats)
            rows.append((k, algorithm, ms / len(queries)))
    return rows


# ---------------------------------------------------------------------------
# Figure 10: top-K query performance
# ---------------------------------------------------------------------------

FIG10_ALGORITHMS = ("topk-join", "join", "rdil")
# Section V-D's hybrid joins the correlated-query comparison: it should
# track the better of the two join-based plans per query.
FIG10BC_ALGORITHMS = ("topk-join", "join", "rdil", "hybrid")


def fig10a_rows(bench: Workbench, n_keywords: int = 2,
                repeats: int = 3) -> List[Tuple[int, str, float]]:
    """(low_freq, algorithm, ms) rows for Figure 10(a): random
    (low-correlation) queries."""
    db = bench.dblp
    k = bench.config.topk
    rows = []
    for low, queries in fig9_cells(bench, n_keywords):
        bench.warm(db, queries)
        for algorithm in FIG10_ALGORITHMS:
            ms = timed(lambda: run_topk(db, queries, algorithm, k), repeats)
            rows.append((low, algorithm, ms / len(queries)))
    return rows


def fig10bc_rows(bench: Workbench,
                 repeats: int = 3) -> List[Tuple[str, str, float]]:
    """(query_label, algorithm, ms) rows for Figure 10(b)-(c):
    correlated queries."""
    db = bench.dblp
    k = bench.config.topk
    rows = []
    for spec in bench.builder.correlated_queries():
        bench.warm(db, [spec])
        for algorithm in FIG10BC_ALGORITHMS:
            ms = timed(
                lambda: run_topk(db, [spec], algorithm, k), repeats)
            rows.append((spec.label, algorithm, ms))
    return rows


class _MeteredPlanner(JoinPlanner):
    """Sums what the level joins add to ``tuples_scanned``."""
    merged = 0

    def intersect_all(self, columns, stats=None, level=None):
        self.merged -= stats.tuples_scanned
        joined = super().intersect_all(columns, stats, level)
        self.merged += stats.tuples_scanned
        return joined


def fig10_work_rows(bench: Workbench) -> List[Tuple[str, str, int]]:
    """Scale-free companion to Figure 10(b)-(c): data items touched.

    Wall-clock on a 130k-node corpus is mostly per-call overhead, so
    the shape claim "top-K terminates much earlier on correlated
    queries" is also checked in the paper's own currency -- how much of
    the inverted lists each algorithm reads:

    * ``topk-join``: what the run scanned before the K-th emission --
      ``/joined``, distinct values merged by the join that opens every
      entered level (early-terminating ones too, which the paper's
      algorithm never joins), plus ``/pulled``, tuples taken from the
      ranked inputs, whole blocks counted;
    * ``join``: every column entry of every level (the complete
      algorithm always reads them all);
    * ``rdil``: score-ordered pops plus index lookups.
    """
    from ..algorithms.rdil import RDILSearch
    from ..algorithms.topk_keyword import TopKKeywordSearch

    db = bench.dblp
    k = bench.config.topk
    rows: List[Tuple[str, str, int]] = []
    for spec in bench.builder.correlated_queries():
        bench.warm(db, [spec])
        terms = list(spec.terms)
        planner = _MeteredPlanner()
        scanned = TopKKeywordSearch(db.columnar_index, planner=planner) \
            .search(terms, k).stats.tuples_scanned
        rows += [(spec.label, "topk-join", scanned),
                 (spec.label, "topk-join/joined", planner.merged),
                 (spec.label, "topk-join/pulled", scanned - planner.merged)]
        postings = db.columnar_index.query_postings(terms)
        start = min(p.max_len for p in postings)
        column_entries = sum(len(p.column(level))
                             for p in postings
                             for level in range(1, start + 1))
        rows.append((spec.label, "join", column_entries))
        rdil = RDILSearch(db.inverted_index).search(terms, k)
        rows.append((spec.label, "rdil",
                     rdil.stats.tuples_scanned + rdil.stats.lookups))
    return rows


# ---------------------------------------------------------------------------
# Ablations
# ---------------------------------------------------------------------------

def ablation_join_policy_rows(bench: Workbench, repeats: int = 3
                              ) -> List[Tuple[int, str, float, int, int]]:
    """Section III-C claim: dynamic join choice vs forced merge/index.

    Reports wall time plus the work counters (tuples merged, index
    probes): the counters carry the signal at laptop scale, where numpy
    makes both intersection kernels fast in absolute terms.
    """
    db = bench.dblp
    rows = []
    for low, queries in fig9_cells(bench, n_keywords=3):
        bench.warm(db, queries)
        for policy in ("dynamic", "merge", "index"):
            engine = JoinBasedSearch(db.columnar_index, JoinPlanner(policy))

            def run():
                folded = ExecutionStats()
                for spec in queries:
                    _, stats = engine.evaluate(list(spec.terms), "elca",
                                               with_scores=False)
                    folded.merge(stats)
                return folded

            ms = timed(run, repeats) / len(queries)
            folded = run()
            rows.append((low, policy, ms, folded.tuples_scanned,
                         folded.lookups))
    return rows


def ablation_bound_rows(bench: Workbench) -> List[Tuple[str, str, int]]:
    """Section IV-B claim: the star-join group bound retrieves fewer
    tuples than the classic HRJN bound before the top-K unblocks."""
    from ..algorithms.topk_keyword import TopKKeywordSearch

    db = bench.dblp
    k = bench.config.topk
    rows = []
    for spec in bench.builder.correlated_queries():
        bench.warm(db, [spec])
        for bound in ("group", "classic"):
            engine = TopKKeywordSearch(db.columnar_index, bound_mode=bound)
            result = engine.search(list(spec.terms), k)
            rows.append((spec.label, bound, result.stats.tuples_scanned))
    return rows


def ablation_compression_rows(bench: Workbench
                              ) -> List[Tuple[str, str, float]]:
    """Section III-D claim: per-scheme compressed vs raw column bytes."""
    from ..index.compression import (PAPER_CODECS, choose_codec,
                                     uncompressed_size)

    totals = {"rle": [0, 0], "delta": [0, 0]}
    index = bench.dblp.columnar_index
    for term in index.vocabulary:
        postings = index.term_postings(term)
        for level in range(1, postings.max_len + 1):
            column = postings.column(level)
            scheme, blob = choose_codec(column.values, PAPER_CODECS)
            totals[scheme][0] += uncompressed_size(column.values)
            totals[scheme][1] += len(blob)
    rows = []
    for scheme, (raw, packed) in totals.items():
        if raw:
            rows.append((scheme, "raw KiB", raw / 1024.0))
            rows.append((scheme, "compressed KiB", packed / 1024.0))
            rows.append((scheme, "ratio", raw / packed))
    return rows


def ablation_eraser_rows(bench: Workbench, repeats: int = 3
                         ) -> List[Tuple[str, str, float]]:
    """Section III-E: per-row bitmap vs range-checking interval pruning."""
    db = bench.dblp
    queries = bench.builder.correlated_queries()
    bench.warm(db, queries)
    rows = []
    for mode in ("bitmap", "interval"):
        engine = JoinBasedSearch(db.columnar_index, eraser_mode=mode)

        def run():
            for spec in queries:
                engine.evaluate(list(spec.terms), "elca", with_scores=False)

        rows.append(("correlated", mode, timed(run, repeats)))
    return rows


# ---------------------------------------------------------------------------
# CLI report
# ---------------------------------------------------------------------------

def _print_table(title: str, header: Sequence[str],
                 rows: Sequence[Sequence[object]]) -> None:
    print(f"\n### {title}")
    widths = [max(len(str(h)), *(len(_fmt(r[i])) for r in rows)) + 2
              for i, h in enumerate(header)]
    print("".join(str(h).ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        print("".join(_fmt(v).ljust(w) for v, w in zip(row, widths)))


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def main(config: Optional[BenchConfig] = None) -> None:
    bench = Workbench(config)
    print(f"# Reproduction report (n_papers={bench.config.n_papers}, "
          f"high_freq={bench.config.high_freq})")
    t0 = time.perf_counter()
    bench.dblp
    bench.xmark
    print(f"corpora built in {time.perf_counter() - t0:.1f}s: "
          f"DBLP {len(bench.dblp)} nodes, XMark {len(bench.xmark)} nodes")

    rows = table1_rows(bench)
    _print_table("Table I: index sizes (KiB)",
                 ("corpus", "structure", "KiB"), rows)
    problems = check_table1_shape(rows)
    print("shape check:", "OK" if not problems else problems)

    for k in (2, 3, 4, 5):
        _print_table(f"Figure 9({'abcd'[k - 2]}): k={k}, "
                     "high fixed, low varies (ms/query)",
                     ("low_freq", "algorithm", "ms"), fig9_rows(bench, k))
    for freq in (bench.config.low_freqs[1], bench.config.low_freqs[2]):
        _print_table(f"Figure 9(e/f): equal frequency {freq} (ms/query)",
                     ("k", "algorithm", "ms"),
                     fig9_equal_rows(bench, freq))
    _print_table("Figure 10(a): top-10, random queries (ms/query)",
                 ("low_freq", "algorithm", "ms"), fig10a_rows(bench))
    _print_table("Figure 10(b/c): top-10, correlated queries (ms/query)",
                 ("query", "algorithm", "ms"), fig10bc_rows(bench))
    _print_table("Figure 10(b/c) in work units: data items touched",
                 ("query", "algorithm", "items"), fig10_work_rows(bench))
    _print_table("Ablation: join policy (k=3)",
                 ("low_freq", "policy", "ms", "tuples", "probes"),
                 ablation_join_policy_rows(bench))
    _print_table("Ablation: top-K bound (tuples retrieved)",
                 ("query", "bound", "tuples"), ablation_bound_rows(bench))
    _print_table("Ablation: compression",
                 ("scheme", "metric", "value"),
                 ablation_compression_rows(bench))
    _print_table("Ablation: erasure structure (ms, correlated set)",
                 ("workload", "mode", "ms"), ablation_eraser_rows(bench))


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.harness", allow_abbrev=False,
        description="regenerate the paper's section V tables and figures")
    parser.add_argument("--small", action="store_true",
                        help="fast smoke-scale configuration")
    main(BenchConfig.small() if parser.parse_args().small else None)
