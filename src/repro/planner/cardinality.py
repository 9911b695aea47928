"""Join-cardinality estimation (paper section V-D).

The paper's hybrid predicts, per level, how many JDewey numbers the k
columns will share before running the join.  The top-K drivers here join
first and read the exact number; `explain` and the plan audit
(`repro.obs.audit`) still predict it.  The estimator is the classic
containment-assumption formula from relational optimizers, applied to
the per-column distinct counts, optionally refined by a sampled overlap
probe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np


@dataclass(frozen=True)
class CardinalityEstimate:
    """Both ingredients of one estimate, for plan auditing.

    ``containment`` is the closed-form independence estimate,
    ``sampled`` the probe-refined one (0.0 when sampling saw nothing or
    was disabled), ``combined`` the value the planner actually uses.
    """

    containment: float
    sampled: float
    combined: float


def containment_estimate(distinct_sizes: Sequence[int],
                         domain_size: int) -> float:
    """Expected intersection size under independence within the domain.

    With columns of d_1..d_k distinct values drawn from a level domain of
    size D, E[|intersection|] = D * prod(d_i / D).
    """
    if not distinct_sizes or domain_size <= 0:
        return 0.0
    estimate = float(domain_size)
    for size in distinct_sizes:
        estimate *= min(size, domain_size) / domain_size
    return estimate


def sampled_estimate(columns: List[np.ndarray], sample_size: int = 64,
                     rng: Optional[np.random.Generator] = None) -> float:
    """Refined estimate: probe a sample of the smallest column.

    Samples values from the shortest distinct array, probes the others,
    and scales the hit rate back up.  Deterministic when `rng` is seeded.
    """
    nonempty = [c for c in columns if len(c)]
    if len(nonempty) != len(columns) or not columns or sample_size <= 0:
        return 0.0
    ordered = sorted(columns, key=len)
    smallest = ordered[0]
    if len(smallest) <= sample_size:
        sample = smallest
        scale = 1.0
    else:
        rng = rng if rng is not None else np.random.default_rng(0)
        picks = rng.choice(len(smallest), size=sample_size, replace=False)
        sample = smallest[np.sort(picks)]
        scale = len(smallest) / sample_size
    hits = sample
    for column in ordered[1:]:
        if len(hits) == 0:
            return 0.0
        pos = np.searchsorted(column, hits)
        pos = np.minimum(pos, len(column) - 1)
        hits = hits[column[pos] == hits]
    return len(hits) * scale


class CardinalityEstimator:
    """Per-level join-cardinality estimates for `explain` and the audit.

    ``sample_size=0`` disables the probe refinement entirely, leaving
    the pure containment formula -- the configuration the plan auditor
    uses to demonstrate estimation error on correlated keywords.
    """

    def __init__(self, sample_size: int = 64, seed: int = 0):
        self.sample_size = sample_size
        self._rng = np.random.default_rng(seed)

    def estimate(self, columns: List[np.ndarray],
                 domain_size: Optional[int] = None) -> float:
        """Best-effort estimate of |intersection| of the distinct arrays."""
        return self.estimate_detail(columns, domain_size).combined

    def estimate_detail(self, columns: List[np.ndarray],
                        domain_size: Optional[int] = None
                        ) -> CardinalityEstimate:
        """Containment, sampled and combined estimates in one object."""
        if any(len(c) == 0 for c in columns) or not columns:
            return CardinalityEstimate(0.0, 0.0, 0.0)
        if domain_size is None:
            domain_size = int(max(c[-1] for c in columns))
        base = containment_estimate([len(c) for c in columns], domain_size)
        refined = sampled_estimate(columns, self.sample_size, self._rng)
        # The sampled probe dominates when it saw anything; the formula
        # covers the all-misses case where sampling returns 0.
        combined = max(base, refined) if refined > 0 else base
        return CardinalityEstimate(base, refined, combined)
