"""Plan-quality auditing: EXPLAIN ANALYZE for the section III-C optimizer.

The dynamic planner (`repro.planner.plans.JoinPlanner`) picks merge vs.
index join per pairwise intersection from a cost model, and the hybrid
plan leans on cardinality estimates (`repro.planner.cardinality`) --
but nothing in the pipeline ever checks whether those predictions were
*right*.  This module closes the loop:

* `AuditingJoinPlanner` -- a drop-in `JoinPlanner` that records, per
  pairwise join, the probe/target sizes, the modeled merge and index
  costs, the algorithm chosen, the actual wall time, and (in shadow
  mode) the measured wall time of the algorithm *not* chosen;
* `PlanAuditor` -- collects per-level predicted cardinality
  (containment + sampled, via `CardinalityEstimator.estimate_detail`)
  and, through the engine's observer hook, the actual intermediate
  size and wall time of every level;
* `PlanAudit` / `LevelAudit` -- the per-query verdict: per-level
  q-error, regret (actual cost of the chosen plan minus the cost of
  the alternative -- shadow-measured when available, otherwise the
  model calibrated by the observed run), and which levels were
  mispredicted and why.

Front doors: ``db.explain(query, analyze=True)``,
``db.search(query, audit=True, with_stats=True)`` (the audit rides on
``ExecutionStats.audit``) and the ``repro audit`` CLI verb.

Misprediction flags per level:

* ``cardinality`` -- q-error above the threshold (default 4.0): the
  estimator missed the intermediate size by that factor in either
  direction, the classic silent plan killer;
* ``plan`` -- re-running the cost model on the sizes actually observed
  prefers the algorithm that was *not* chosen (only forced/stale
  policies can trigger this: the dynamic policy is model-optimal on
  observed sizes by construction);
* ``regret`` -- the alternative plan was materially cheaper in wall
  time (shadow-measured, or model-calibrated), beyond both the
  relative and absolute noise floors.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from ..planner.cardinality import CardinalityEstimator
from ..planner.plans import (INDEX, MERGE, JoinPlanner, alternative_of,
                             modeled_cost)

SHADOW_MODES = ("off", "sampled", "all")

# A level is mispredicted on q-error when the estimate is off by this
# factor in either direction.
DEFAULT_Q_THRESHOLD = 4.0
# Regret flags need the alternative to be at least this fraction
# cheaper *and* the saving to clear an absolute floor, so timing noise
# on microsecond joins cannot flag a level.
REGRET_FRACTION = 0.25
REGRET_FLOOR_MS = 0.05


@dataclass
class JoinObservation:
    """One pairwise intersection as the planner executed it."""

    level: Optional[int]
    probe_size: int
    target_size: int
    output_size: int
    algorithm: str
    predicted_merge_cost: float
    predicted_index_cost: float
    actual_ms: float
    shadow_ms: Optional[float] = None  # measured alternative, if run

    @property
    def chosen_cost(self) -> float:
        return modeled_cost(self.algorithm, self.probe_size,
                            self.target_size)

    @property
    def alternative(self) -> str:
        return alternative_of(self.algorithm)

    @property
    def alternative_cost(self) -> float:
        return modeled_cost(self.alternative, self.probe_size,
                            self.target_size)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "level": self.level,
            "probe_size": self.probe_size,
            "target_size": self.target_size,
            "output_size": self.output_size,
            "algorithm": self.algorithm,
            "predicted_merge_cost": self.predicted_merge_cost,
            "predicted_index_cost": self.predicted_index_cost,
            "actual_ms": self.actual_ms,
            "shadow_ms": self.shadow_ms,
        }


class AuditingJoinPlanner(JoinPlanner):
    """A `JoinPlanner` that measures every decision it makes.

    Wraps a base planner's *policy* (so forced merge/index ablation
    plans can be audited too) and records a `JoinObservation` per
    pairwise intersection.  ``shadow`` controls whether the algorithm
    that was **not** chosen also runs, on the same inputs, purely for
    timing:

    * ``"off"`` (default) -- never; regret falls back to the cost
      model calibrated by the observed run;
    * ``"sampled"`` -- per level with probability ``shadow_rate``
      (seeded, deterministic);
    * ``"all"`` -- every join (doubles join work; diagnosis runs only).

    Shadow runs never touch `ExecutionStats`, so audited counters stay
    comparable to unaudited runs.
    """

    def __init__(self, base: Optional[JoinPlanner] = None,
                 shadow: str = "off", shadow_rate: float = 0.25,
                 seed: int = 0):
        if shadow not in SHADOW_MODES:
            raise ValueError(f"unknown shadow mode {shadow!r}; "
                             f"one of {SHADOW_MODES}")
        base = base if base is not None else JoinPlanner()
        super().__init__(base.policy)
        self.shadow = shadow
        self.shadow_rate = float(shadow_rate)
        self.records: List[JoinObservation] = []
        self._rng = random.Random(seed)
        self._shadow_level = False

    def intersect_all(self, columns, stats=None, level=None):
        self._shadow_level = (
            self.shadow == "all"
            or (self.shadow == "sampled"
                and self._rng.random() < self.shadow_rate))
        return super().intersect_all(columns, stats, level)

    def execute(self, algorithm: str, probe: np.ndarray,
                target: np.ndarray, stats=None, level=None) -> np.ndarray:
        start = time.perf_counter()
        result = super().execute(algorithm, probe, target, stats)
        actual_ms = (time.perf_counter() - start) * 1000.0
        shadow_ms: Optional[float] = None
        if self._shadow_level:
            shadow_start = time.perf_counter()
            # stats=None: shadow work is free
            super().execute(alternative_of(algorithm), probe, target)
            shadow_ms = (time.perf_counter() - shadow_start) * 1000.0
        self.records.append(JoinObservation(
            level=level,
            probe_size=len(probe),
            target_size=len(target),
            output_size=len(result),
            algorithm=algorithm,
            predicted_merge_cost=modeled_cost(MERGE, len(probe),
                                              len(target)),
            predicted_index_cost=modeled_cost(INDEX, len(probe),
                                              len(target)),
            actual_ms=actual_ms,
            shadow_ms=shadow_ms,
        ))
        return result


@dataclass
class LevelAudit:
    """Predicted vs. actual for one level of the bottom-up join."""

    level: int
    predicted: float            # combined estimate the planner would use
    containment: float          # closed-form independence estimate
    sampled: float              # probe-refined estimate (0.0 = no hits)
    actual: int                 # |intersection| the join produced
    q_error: float
    level_ms: float             # wall time of the whole level
    join_ms: float              # wall time inside the pairwise joins
    shadow_ms: Optional[float]  # measured alternative-plan join time
    modeled_chosen_cost: float
    modeled_alternative_cost: float
    regret_ms: float
    joins: List[JoinObservation] = field(default_factory=list)
    flags: List[str] = field(default_factory=list)

    @property
    def mispredicted(self) -> bool:
        return bool(self.flags)

    @property
    def plan(self) -> List[str]:
        return [obs.algorithm for obs in self.joins]

    def format(self) -> str:
        joins = "+".join(self.plan) or "-"
        shadow = (f" shadow={self.shadow_ms:.3f}ms"
                  if self.shadow_ms is not None else "")
        flags = f"  !! {','.join(self.flags)}" if self.flags else ""
        return (f"level {self.level}: est={self.predicted:.1f} "
                f"(containment={self.containment:.1f} "
                f"sampled={self.sampled:.1f}) actual={self.actual} "
                f"q_err={self.q_error:.2f} plan=[{joins}] "
                f"join={self.join_ms:.3f}ms{shadow} "
                f"regret={self.regret_ms:+.3f}ms{flags}")

    def as_dict(self) -> Dict[str, Any]:
        return {
            "level": self.level,
            "predicted": self.predicted,
            "containment": self.containment,
            "sampled": self.sampled,
            "actual": self.actual,
            "q_error": self.q_error,
            "level_ms": self.level_ms,
            "join_ms": self.join_ms,
            "shadow_ms": self.shadow_ms,
            "modeled_chosen_cost": self.modeled_chosen_cost,
            "modeled_alternative_cost": self.modeled_alternative_cost,
            "regret_ms": self.regret_ms,
            "plan": self.plan,
            "flags": list(self.flags),
            "joins": [obs.as_dict() for obs in self.joins],
        }


def q_error(predicted: float, actual: float) -> float:
    """The optimizer-literature q-error: max ratio in either direction.

    Both sides are floored at 1.0 (the smallest meaningful
    cardinality), so an estimate of 0.4 against an actual of 0 is a
    perfect 1.0, not a division blow-up.
    """
    hi = max(predicted, float(actual), 1.0)
    lo = max(min(predicted, float(actual)), 1.0)
    return hi / lo


@dataclass
class PlanAudit:
    """EXPLAIN ANALYZE output for one join-based evaluation."""

    terms: tuple
    semantics: str
    policy: str
    shadow: str
    levels: List[LevelAudit] = field(default_factory=list)
    q_threshold: float = DEFAULT_Q_THRESHOLD

    @property
    def mispredicted_levels(self) -> List[LevelAudit]:
        return [lvl for lvl in self.levels if lvl.mispredicted]

    @property
    def max_q_error(self) -> float:
        return max((lvl.q_error for lvl in self.levels), default=1.0)

    @property
    def total_regret_ms(self) -> float:
        return sum(lvl.regret_ms for lvl in self.levels)

    def verdict(self) -> str:
        bad = self.mispredicted_levels
        if not bad:
            return (f"plan OK: {len(self.levels)} levels, "
                    f"max q-error {self.max_q_error:.2f}")
        reasons = sorted({flag for lvl in bad for flag in lvl.flags})
        return (f"{len(bad)}/{len(self.levels)} levels mispredicted "
                f"({', '.join(reasons)}): max q-error "
                f"{self.max_q_error:.2f}, total regret "
                f"{self.total_regret_ms:+.3f} ms")

    def format(self) -> str:
        lines = [
            f"audit: {' '.join(self.terms)} [{self.semantics}] "
            f"policy={self.policy} shadow={self.shadow}",
        ]
        lines.extend(lvl.format() for lvl in self.levels)
        lines.append(self.verdict())
        return "\n".join(lines)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "terms": list(self.terms),
            "semantics": self.semantics,
            "policy": self.policy,
            "shadow": self.shadow,
            "q_threshold": self.q_threshold,
            "max_q_error": self.max_q_error,
            "total_regret_ms": self.total_regret_ms,
            "verdict": self.verdict(),
            "levels": [lvl.as_dict() for lvl in self.levels],
        }

    def to_json(self, **kwargs) -> str:
        kwargs.setdefault("sort_keys", True)
        return json.dumps(self.as_dict(), **kwargs)


class PlanAuditor:
    """Collects one query's audit through the engine's observer hook.

    Usage (what `explain(analyze=True)` does under the hood)::

        auditor = PlanAuditor()
        engine = JoinBasedSearch(index, auditor.planner)
        _results, stats = engine.evaluate(terms, observer=auditor.observer)
        audit = auditor.finish(terms, "elca")

    The auditor's planner must be the engine's planner -- that is where
    the per-join observations come from; the observer supplies the
    per-level predicted/actual cardinalities and wall times.
    """

    def __init__(self, planner: Optional[JoinPlanner] = None,
                 estimator: Optional[CardinalityEstimator] = None,
                 shadow: str = "off", shadow_rate: float = 0.25,
                 seed: int = 0,
                 q_threshold: float = DEFAULT_Q_THRESHOLD):
        self.planner = AuditingJoinPlanner(planner, shadow=shadow,
                                           shadow_rate=shadow_rate,
                                           seed=seed)
        self.estimator = (estimator if estimator is not None
                          else CardinalityEstimator(seed=seed))
        self.q_threshold = float(q_threshold)
        self._level_rows: List[Dict[str, Any]] = []
        self._mark = time.perf_counter()

    def observer(self, level, columns, joined, emitted) -> None:
        """The `JoinBasedSearch.evaluate` observer callback.

        Level wall time is the delta since the previous observer call
        (levels whose columns were empty fold into the next processed
        level -- they cost almost nothing).
        """
        now = time.perf_counter()
        level_ms = (now - self._mark) * 1000.0
        self._mark = now
        detail = self.estimator.estimate_detail(
            [c.distinct for c in columns])
        self._level_rows.append({
            "level": level,
            "detail": detail,
            "actual": int(len(joined)),
            "level_ms": level_ms,
        })

    def finish(self, terms: Sequence[str], semantics: str) -> PlanAudit:
        """Assemble the `PlanAudit` after the evaluation ran."""
        audit = PlanAudit(terms=tuple(terms), semantics=semantics,
                          policy=self.planner.policy,
                          shadow=self.planner.shadow,
                          q_threshold=self.q_threshold)
        by_level: Dict[int, List[JoinObservation]] = {}
        for obs in self.planner.records:
            if obs.level is not None:
                by_level.setdefault(obs.level, []).append(obs)
        for row in self._level_rows:
            audit.levels.append(self._level_audit(row, by_level))
        return audit

    def _level_audit(self, row: Dict[str, Any],
                     by_level: Dict[int, List[JoinObservation]]
                     ) -> LevelAudit:
        detail = row["detail"]
        joins = by_level.get(row["level"], [])
        join_ms = sum(obs.actual_ms for obs in joins)
        chosen_cost = sum(obs.chosen_cost for obs in joins)
        alternative_cost = sum(obs.alternative_cost for obs in joins)
        shadowed = [obs for obs in joins if obs.shadow_ms is not None]
        shadow_ms: Optional[float] = None
        if shadowed and len(shadowed) == len(joins):
            shadow_ms = sum(obs.shadow_ms for obs in joins)
            regret_ms = join_ms - shadow_ms
        elif chosen_cost > 0:
            # Calibrate model units to wall time with the run we did
            # observe: ms/unit from the chosen plan, applied to the
            # alternative's modeled cost.
            regret_ms = join_ms - (alternative_cost
                                   * (join_ms / chosen_cost))
        else:
            regret_ms = 0.0
        level = LevelAudit(
            level=row["level"],
            predicted=detail.combined,
            containment=detail.containment,
            sampled=detail.sampled,
            actual=row["actual"],
            q_error=q_error(detail.combined, row["actual"]),
            level_ms=row["level_ms"],
            join_ms=join_ms,
            shadow_ms=shadow_ms,
            modeled_chosen_cost=chosen_cost,
            modeled_alternative_cost=alternative_cost,
            regret_ms=regret_ms,
            joins=joins,
        )
        if level.q_error > self.q_threshold:
            level.flags.append("cardinality")
        if any(obs.chosen_cost > obs.alternative_cost for obs in joins):
            level.flags.append("plan")
        if (regret_ms > REGRET_FRACTION * max(join_ms, 1e-9)
                and regret_ms > REGRET_FLOOR_MS):
            level.flags.append("regret")
        return level


def audit_query(index, terms: Sequence[str], semantics: str = "elca",
                planner: Optional[JoinPlanner] = None,
                estimator: Optional[CardinalityEstimator] = None,
                shadow: str = "off", shadow_rate: float = 0.25,
                seed: int = 0,
                q_threshold: float = DEFAULT_Q_THRESHOLD) -> PlanAudit:
    """One-shot EXPLAIN ANALYZE of the join-based evaluation.

    Runs the real engine over `index` with an `AuditingJoinPlanner`
    and returns the assembled `PlanAudit`.  ``planner`` supplies the
    policy to audit (e.g. a forced ``JoinPlanner("merge")`` ablation);
    ``estimator`` the cardinality model under test.
    """
    from ..algorithms.join_based import JoinBasedSearch

    auditor = PlanAuditor(planner, estimator, shadow=shadow,
                          shadow_rate=shadow_rate, seed=seed,
                          q_threshold=q_threshold)
    engine = JoinBasedSearch(index, auditor.planner)
    engine.evaluate(list(terms), semantics, with_scores=False,
                    observer=auditor.observer)
    return auditor.finish(list(terms), semantics)
