"""Query plan inspection: what the join-based engine did, per level.

The paper's dynamic optimization (section III-C) chooses a join
algorithm per level from run-time sizes -- "keyword correlation is a
concept bound to specific contexts".  `explain` exposes those decisions:
per-level column and distinct sizes, the cardinality estimate, which
joins ran as merges and which as probes, how many numbers joined and how
many survived the semantic pruning.

::

    plan = explain(db.columnar_index, ["xml", "data"], semantics="elca")
    print(plan.format())
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from typing import TYPE_CHECKING

from ..index.columnar import ColumnarIndex
from ..obs.tracing import NULL_TRACER, Span, render_trace
from ..planner.cardinality import CardinalityEstimator
from ..planner.plans import JoinPlanner
from .base import ELCA, ExecutionStats, check_semantics
from .join_based import JoinBasedSearch

if TYPE_CHECKING:  # import cycle: obs.audit -> planner -> algorithms
    from ..obs.audit import PlanAudit


@dataclass
class LevelPlan:
    """What happened at one tree level."""

    level: int
    column_sizes: Tuple[int, ...]
    distinct_sizes: Tuple[int, ...]
    estimate: float
    join_algorithms: Tuple[str, ...]
    joined: int
    emitted: int

    def format(self) -> str:
        joins = "+".join(self.join_algorithms) or "-"
        return (f"level {self.level}: columns={list(self.column_sizes)} "
                f"distinct={list(self.distinct_sizes)} "
                f"est={self.estimate:.1f} joins=[{joins}] "
                f"joined={self.joined} results={self.emitted}")


@dataclass
class QueryPlan:
    """Full per-level trace of one evaluation."""

    terms: Tuple[str, ...]
    execution_order: Tuple[str, ...]
    semantics: str
    levels: List[LevelPlan] = field(default_factory=list)
    stats: Optional[ExecutionStats] = None
    n_results: int = 0
    trace: Optional[Span] = None
    audit: Optional["PlanAudit"] = None  # EXPLAIN ANALYZE verdict

    def format(self) -> str:
        lines = [
            f"query: {' '.join(self.terms)} [{self.semantics}]",
            f"execution order (shortest list first): "
            f"{' -> '.join(self.execution_order)}",
        ]
        lines.extend(lp.format() for lp in self.levels)
        if self.stats is not None:
            lines.append(
                f"totals: {self.n_results} results, "
                f"{self.stats.merge_joins} merge joins, "
                f"{self.stats.index_joins} index joins, "
                f"{self.stats.tuples_scanned} tuples scanned, "
                f"{self.stats.lookups} probes, "
                f"{self.stats.erasures} sequences erased")
        if self.audit is not None:
            lines.append("analyze:")
            lines.extend(f"  {line}"
                         for line in self.audit.format().splitlines())
        if self.trace is not None:
            lines.append("trace:")
            lines.append(render_trace(self.trace))
        return "\n".join(lines)

    @property
    def join_mix(self) -> Tuple[int, int]:
        """(merge_joins, index_joins) across all levels."""
        merges = sum(1 for lp in self.levels
                     for a in lp.join_algorithms if a == "merge")
        probes = sum(1 for lp in self.levels
                     for a in lp.join_algorithms if a == "index")
        return merges, probes


def explain(index: ColumnarIndex, terms: Sequence[str],
            semantics: str = ELCA,
            planner: Optional[JoinPlanner] = None,
            tracer=None, analyze: bool = False, shadow: str = "off",
            estimator: Optional[CardinalityEstimator] = None,
            seed: int = 0) -> QueryPlan:
    """Evaluate `terms` and return the per-level `QueryPlan`.

    Runs the real engine (the plan reflects actual run-time decisions,
    not estimates alone).  With a live ``tracer``, the evaluation's span
    tree is recorded and attached as ``plan.trace`` -- its per-level
    ``plan`` tags match ``stats.per_level_plan`` exactly.

    ``analyze=True`` is EXPLAIN ANALYZE: the run is audited by
    `repro.obs.audit.PlanAuditor` and ``plan.audit`` carries the
    per-level predicted vs. actual cardinality, q-error and regret
    verdict.  ``shadow`` ("off"/"sampled"/"all") additionally executes
    the join algorithm the planner did *not* pick, for measured rather
    than modeled regret.  ``estimator`` overrides the audited
    cardinality model (e.g. ``CardinalityEstimator(sample_size=0)`` to
    inspect the pure containment formula).
    """
    check_semantics(semantics)
    terms = list(terms)
    auditor = None
    if analyze:
        from ..obs.audit import PlanAuditor

        auditor = PlanAuditor(planner, estimator, shadow=shadow,
                              seed=seed)
        planner = auditor.planner
    tracer = tracer if tracer is not None else NULL_TRACER
    engine = JoinBasedSearch(index, planner)
    display_estimator = (estimator if estimator is not None
                         else CardinalityEstimator())
    ordered = index.query_postings(terms)
    plan = QueryPlan(terms=tuple(terms),
                     execution_order=tuple(p.term for p in ordered),
                     semantics=semantics)

    def observer(level, columns, joined, emitted):
        if auditor is not None:
            auditor.observer(level, columns, joined, emitted)
        plan.levels.append(LevelPlan(
            level=level,
            column_sizes=tuple(len(c) for c in columns),
            distinct_sizes=tuple(c.n_distinct for c in columns),
            estimate=display_estimator.estimate(
                [c.distinct for c in columns]),
            join_algorithms=(),  # filled from the stats trace below
            joined=len(joined),
            emitted=emitted,
        ))

    with tracer.span("query", op="explain", terms=list(terms),
                     semantics=semantics):
        results, stats = engine.evaluate(terms, semantics, with_scores=False,
                                         observer=observer)
    plan.trace = tracer.last_root()
    # The planner tags each pairwise join with its level; attach them.
    for level_plan in plan.levels:
        level_plan.join_algorithms = tuple(
            algorithm for level, algorithm in stats.per_level_plan
            if level == level_plan.level)
    if auditor is not None:
        plan.audit = auditor.finish(terms, semantics)
        stats.audit = plan.audit
    plan.stats = stats
    plan.n_results = len(results)
    return plan
