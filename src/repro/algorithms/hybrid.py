"""Hybrid plan selection (paper section V-D).

Figure 10 shows the two join-based algorithms are complementary: the
top-K star join wins when the keywords are correlated (many results,
early termination), while the complete join-based evaluation wins when
results are scarce (the rank join is overhead on top of the join).  The
deciding quantity is the per-level join cardinality.

`HybridTopKSearch` implements the hybrid the paper sketches: a score
index exists on top of the JDewey columns (both orders available), and
at *every level* the size of the level's join picks the plan --

* joined numbers >= ``switch_factor * k`` remaining  ->  run the level
  as a top-K star join with threshold-based early emission;
* otherwise  ->  finish the level eagerly (`LevelRun.finish_level`:
  check, score and erase every joined number at once, the second half of
  the level complete evaluation is made of) and buffer the results.

The paper estimates that cardinality; the top-K driver, whose level loop
this is, joins a level's columns before anything else, so the number is
exact and already there.  It is read per level, giving the
context-awareness of section III-C: the same query may finish the paper
level eagerly and rank-join the conference level.  ``plan_trace`` has
one entry per processed level; a level nothing joins at has no plan to
pick and is recorded ``"eager"``.

``switch_factor = 4.0`` was re-measured with the join hoisted (22
`fig10_topk` queries, seed 7, 20 000 papers, top-10, geomean of
per-query medians over 7 interleaved passes): factor 0 (rank-join
whatever joins) 1.83 ms (`topk_plan_share` 0.80 -- the rest are empty
levels), 1 1.67, **4 1.48** (0.39), 16 1.32, never 1.03; the pure top-K
engine 1.80 -- all about 2.2x faster than over whole columns (4.13 /
2.74 / 2.14 / 1.78 / 1.22, 4.07).  Still no minimum to move the constant
to: both kinds of level pay the same join, after which the eager one is
a bulk check and the ranked one a block loop at ~100 us a block, on
every query, correlated ones included (1.40 against 2.25 ms).  A real
choice needs a cost model that prices blocks (ROADMAP, top-K item).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..index.columnar import ColumnarIndex
from ..planner.plans import JoinPlanner
from ..reliability.deadline import Deadline
from .base import ELCA, TopKResult
from .topk_join import GROUP
from .topk_keyword import TopKKeywordSearch, _TopKRun


class HybridTopKSearch(TopKKeywordSearch):
    """Cardinality-driven mix of the complete and top-K join plans: the
    top-K driver, with the plan of each level chosen by the size of its
    join."""

    def __init__(self, index: ColumnarIndex, bound_mode: str = GROUP,
                 eraser_mode: str = "bitmap",
                 planner: Optional[JoinPlanner] = None,
                 switch_factor: float = 4.0):
        super().__init__(index, bound_mode, eraser_mode, planner)
        self.switch_factor = switch_factor
        self.plan_trace: List[str] = []

    def search(self, terms: Sequence[str], k: int, semantics: str = ELCA,
               deadline: Optional[Deadline] = None) -> TopKResult:
        """`TopKKeywordSearch.search`; ``plan_trace`` then lists the
        plan ("topk" / "eager") of each processed level, bottom-up."""
        self.plan_trace = []
        return super().search(terms, k, semantics, deadline)

    def _rank_level(self, run: _TopKRun, level: int,
                    joined: np.ndarray) -> bool:
        use_topk = len(joined) > 0 and len(joined) >= \
            self.switch_factor * (run.target_k - run.popped)
        self.plan_trace.append("topk" if use_topk else "eager")
        return use_topk
