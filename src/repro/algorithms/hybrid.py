"""Hybrid plan selection (paper section V-D) -- the default top-K.

Figure 10 shows the two join-based algorithms are complementary: the
top-K star join wins when the keywords are correlated (many results,
early termination), while the complete join-based evaluation wins when
results are scarce (the rank join is overhead on top of the join).  The
paper's hybrid picks one of the two per level from the level's join
cardinality.

`HybridTopKSearch` is complete evaluation's level loop run with a K:
each level is `LevelRun.join_level` then `LevelRun.finish_level` (check,
score and erase every joined number at once), exactly as `evaluate`
runs it, and the top-K driver adds the cross-level bound, emission,
early termination and `stream` -- `flush` lets out what the bound
allows, and the query stops at the level that fills the top-K.  The
rank join is ``algorithm="topk-join"``, Figure 10's line.

No per-level choice is left to make (DESIGN.md, item 8): with the join
first, a ranked level's input preparation (`ScoredPostings.ranked` over
the joined runs) costs more than the bulk check -- median ratio 1.4-1.5
at 20 000 papers -- and its blocks come on top.  Measured by
`repro.bench.harness.plan_oracle_rows` (EXPERIMENTS.md's plan-oracle
table: every processed level of the 22 `fig10_topk` queries, top-10,
seed 7, both plans timed from the same state): the per-level oracle
saves 0.0-0.6 % over always-eager at 20 000 papers (rank join cheaper on
0-1 of 51 levels; always-ranked takes 2.6-2.8x).  A corpus where it
saves 5 % or more would reopen the choice.
"""

from __future__ import annotations

from .topk_keyword import TopKKeywordSearch


class HybridTopKSearch(TopKKeywordSearch):
    """The top-K driver with every level finished in bulk: no score
    order is sorted and no rank join runs."""

    rank_levels = False
