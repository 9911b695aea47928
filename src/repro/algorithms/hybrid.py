"""Hybrid plan selection (paper section V-D).

Figure 10 shows the two join-based algorithms are complementary: the
top-K star join wins when the keywords are correlated (many results,
early termination), while the complete join-based evaluation wins when
results are scarce (the rank-join degenerates into a more expensive full
scan).  The deciding quantity is the per-level join cardinality.

`HybridTopKSearch` implements the hybrid the paper sketches: a score
index exists on top of the JDewey columns (both orders available), and
at *every level* a cardinality estimate picks the plan --

* estimated result count >= ``switch_factor * k`` remaining  ->  run the
  level as a top-K star join with threshold-based early emission;
* otherwise                                               ->  evaluate
  the level eagerly with the ordinary column join (cheap when few or no
  numbers match) and buffer the scored results.

Cardinality is re-estimated per level, giving the context-awareness of
section III-C: the same query may scan eagerly at the paper level and
rank-join at the conference level.

The level loop is `TopKKeywordSearch`'s; both kinds of level add to the
run's pending `ResultSet`, and the eager one is `LevelRun.eager_level`,
the level complete evaluation is made of.

``switch_factor = 4.0`` was re-measured when the rank join went
block-at-a-time (22 `fig10_topk` queries, seed 7, 20 000 papers, top-10,
geomean of per-query medians over 7 interleaved passes): factor 0
(always rank-join) 4.13 ms, 0.5 2.83, 1 2.74, 2 2.53, **4 2.14**
(`topk_plan_share` 0.39), 8 2.02, 16 1.78, 64 1.36, never 1.22; the
pure top-K engine 4.07.  The curve has no minimum to move the constant
to: at this corpus size an eager level is cheaper than a rank-join level
on every query, correlated ones included (1.7 against 3.3 ms), because
both read their columns once -- the rank join's ranked input is a filter
over the whole column -- and the eager level then pays no per-block
overhead.  The constant stays; what would make the choice a real one is
a cost model that sees column sizes (ROADMAP, the top-K item).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..index.columnar import ColumnarIndex
from ..planner.cardinality import CardinalityEstimator
from ..planner.plans import JoinPlanner
from ..reliability.deadline import Deadline
from .base import ELCA, TopKResult
from .topk_join import GROUP
from .topk_keyword import TopKKeywordSearch, _TopKRun


class HybridTopKSearch(TopKKeywordSearch):
    """Cardinality-driven mix of the complete and top-K join plans: the
    top-K driver, with the plan of each level chosen by an estimate."""

    def __init__(self, index: ColumnarIndex, bound_mode: str = GROUP,
                 eraser_mode: str = "bitmap",
                 planner: Optional[JoinPlanner] = None,
                 estimator: Optional[CardinalityEstimator] = None,
                 switch_factor: float = 4.0):
        super().__init__(index, bound_mode, eraser_mode, planner)
        self.estimator = (estimator if estimator is not None
                          else CardinalityEstimator())
        self.switch_factor = switch_factor
        self.plan_trace: List[str] = []

    def search(self, terms: Sequence[str], k: int, semantics: str = ELCA,
               deadline: Optional[Deadline] = None) -> TopKResult:
        """`TopKKeywordSearch.search`; ``plan_trace`` then lists the
        plan ("topk" / "eager") of each processed level, bottom-up."""
        self.plan_trace = []
        return super().search(terms, k, semantics, deadline)

    def _rank_level(self, run: _TopKRun, level: int, columns) -> bool:
        estimate = self.estimator.estimate([c.distinct for c in columns])
        use_topk = estimate >= self.switch_factor * (run.target_k
                                                     - run.popped)
        self.plan_trace.append("topk" if use_topk else "eager")
        return use_topk
