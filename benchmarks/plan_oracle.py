"""Per-level plan oracle for the default top-K (DESIGN.md §1 item 8).

For every processed level of the `fig10_topk` queries (top-10, ELCA,
the benchmark-of-record corpus at ``--papers``), time both plans from
the same state -- the eager level (`LevelRun.finish_level` + `flush`)
and the ranked one (star join over the reduced inputs, pulled until the
top-K is owed nothing or the level drains, then `erase_level` +
`flush`) -- as the median of ``--reps`` runs from a restored state, and
let an oracle take the cheaper per level.  Also reports the median
ratio of a ranked level's input preparation (`ScoredPostings.ranked`
over the joined runs) to the eager check (`check_level`).  The query
continues on the eager state, which is the ranked one's too once a
level drains.  Everything is warmed first (columns, score orders).

    PYTHONPATH=src python benchmarks/plan_oracle.py --papers 20000

The default plan stays always-eager while the oracle buys less than 5 %
on every corpus measured.
"""

import argparse
import copy
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "e2e"))
import constants as C  # noqa: E402
from harness import Corpus  # noqa: E402

from repro.algorithms.base import ExecutionStats  # noqa: E402
from repro.algorithms.join_based import check_level  # noqa: E402
from repro.algorithms.topk_keyword import (TopKKeywordSearch,  # noqa: E402
                                           _TopKRun)


def eager(run, level, columns, joined, below):
    run.finish_level(level, columns, joined)
    run.flush(below)


def ranked(run, level, columns, joined, below):
    run_bounds = [c.runs_of(joined) for c in columns]
    join = run.rank_join(level, joined, run_bounds)
    while join.pull():
        run.harvest(join, level, columns, joined, run_bounds, below)
        if run.popped >= run.target_k:
            return
    run.erase_level(level, run.spans(columns, run_bounds))
    run.flush(below)


def median_ms(fn, reps, before=lambda: None):
    times = []
    for _ in range(reps):
        before()
        start = time.perf_counter()
        fn()
        times.append((time.perf_counter() - start) * 1000.0)
    return statistics.median(times)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--papers", type=int, default=C.N_PAPERS)
    parser.add_argument("--seed", type=int, default=C.DEFAULT_SEED)
    parser.add_argument("--reps", type=int, default=5)
    args = parser.parse_args()
    corpus = Corpus(args.seed, args.papers)
    index = corpus.db.columnar_index
    engine = TopKKeywordSearch(index)
    queries = corpus.fig10_queries()
    for _label, terms in queries:
        engine.search(list(terms), C.TOPK)

    totals = {"eager": 0.0, "ranked": 0.0, "oracle": 0.0}
    levels = rank_cheaper = 0
    ratios = []
    for _label, terms in queries:
        terms = list(terms)
        postings = index.query_postings(terms)
        run = _TopKRun(engine, postings, terms, "elca", ExecutionStats(),
                       C.TOPK)
        for level in range(run.start_level, 0, -1):
            below = run.below(level)
            columns = [p.column(level) for p in postings]
            joined = (run.join_level(level, columns)
                      if all(len(c) for c in columns) else ())
            if not len(joined):
                run.flush(below)
                continue
            state = (copy.deepcopy(run.eraser), list(run.chunks), run.top,
                     run.popped)

            def restore():
                run.eraser = copy.deepcopy(state[0])
                run.chunks = list(state[1])
                run.top, run.popped = state[2], state[3]

            te, tr = (median_ms(lambda: plan(run, level, columns, joined,
                                             below), args.reps, restore)
                      for plan in (eager, ranked))
            restore()
            bounds = [c.runs_of(joined) for c in columns]
            prep = median_ms(lambda: [
                s.ranked(level, run.eraser, r, base) for s, r, base
                in zip(run.scored, bounds, run.bases.tolist())], args.reps)
            check = median_ms(lambda: check_level(
                run, level, run.spans(columns, bounds)), args.reps)
            ratios.append(prep / check)
            levels += 1
            rank_cheaper += tr < te
            totals["eager"] += te
            totals["ranked"] += tr
            totals["oracle"] += min(te, tr)
            eager(run, level, columns, joined, below)
            if run.popped >= run.target_k:
                break
    print(f"papers={args.papers} levels={levels} "
          f"ranked_cheaper={rank_cheaper} "
          + " ".join(f"{name}={ms:.2f}ms" for name, ms in totals.items())
          + f" oracle_vs_eager={totals['oracle'] / totals['eager'] - 1:+.1%}"
          + f" prep_over_check={statistics.median(ratios):.2f}")


if __name__ == "__main__":
    main()
