"""Ranking model for XML keyword search (paper section II-B).

Each node directly containing a keyword is treated as a small "document"
and receives a *local score* ``g(v, w)``.  When the occurrence is
propagated up to its ELCA/SLCA at vertical distance ``delta``, the local
score is damped by a decreasing function ``d(delta)``; the result's
global score aggregates the per-keyword damped scores with a monotone
combining function ``F`` (sum by default).  If a result contains several
occurrences of the same keyword, only the best damped occurrence counts.

The algorithms only rely on monotonicity, so both the local scorer and
the combiner are pluggable.
"""

from __future__ import annotations

import math
from typing import Protocol, Sequence

import numpy as np


class LocalScorer(Protocol):
    """Assigns ``g(v, w)`` given the occurrence statistics."""

    def score(self, tf: int, df: int, n_docs: int, node_tokens: int) -> float:
        """Local score of a node for one term.

        Parameters
        ----------
        tf:
            Term frequency inside the node's own text.
        df:
            Number of nodes directly containing the term.
        n_docs:
            Number of text-bearing nodes in the corpus.
        node_tokens:
            Total tokens in the node's own text (for length normalization).
        """
        ...


class TfIdfScorer:
    """The default ``g``: log-damped tf times idf, length-normalized.

    ``g = (1 + ln tf) * ln(1 + N/df) / sqrt(node_tokens)``.  Any positive
    monotone-in-tf/idf function works; this one keeps scores in a narrow
    positive range so damping behaves like the paper's Figure 6 example.
    """

    def score(self, tf: int, df: int, n_docs: int, node_tokens: int) -> float:
        if tf <= 0 or df <= 0:
            return 0.0
        tf_part = 1.0 + math.log(tf)
        idf_part = math.log(1.0 + n_docs / df)
        norm = math.sqrt(max(node_tokens, 1))
        return tf_part * idf_part / norm


class ConstantScorer:
    """``g = constant`` -- useful for tests where only damping matters."""

    def __init__(self, value: float = 1.0):
        self.value = value

    def score(self, tf: int, df: int, n_docs: int, node_tokens: int) -> float:
        return self.value if tf > 0 else 0.0


class DampingFunction:
    """``d(delta) = base ** delta`` with ``0 < base <= 1``.

    The paper's running example uses ``base = 0.9``; ``base = 1`` turns
    damping off (pure local-score ranking).
    """

    def __init__(self, base: float = 0.9):
        if not 0.0 < base <= 1.0:
            raise ValueError("damping base must be in (0, 1]")
        self.base = base

    def __call__(self, delta: int) -> float:
        if delta < 0:
            raise ValueError("vertical distance cannot be negative")
        return self.base ** delta


class Combiner(Protocol):
    """Monotone aggregation ``F`` over per-keyword damped scores."""

    def combine(self, damped_scores: Sequence[float]) -> float:
        ...

    def upper_bound(self, per_keyword_bounds: Sequence[float]) -> float:
        """Monotone bound: F applied to per-keyword upper bounds."""
        ...


class SumCombiner:
    """``F = sum`` -- the paper's running choice; trivially monotone."""

    def combine(self, damped_scores: Sequence[float]) -> float:
        return float(sum(damped_scores))

    def upper_bound(self, per_keyword_bounds: Sequence[float]) -> float:
        return float(sum(per_keyword_bounds))


class MaxCombiner:
    """``F = max`` -- a monotone alternative; a result is as good as its
    best keyword match.  Supported by every algorithm, including the
    top-K path (the star-join bounds fold with max instead of sum)."""

    def combine(self, damped_scores: Sequence[float]) -> float:
        return float(max(damped_scores)) if damped_scores else 0.0

    def upper_bound(self, per_keyword_bounds: Sequence[float]) -> float:
        return self.combine(per_keyword_bounds)


class WeightedSumCombiner:
    """``F = sum_i w_i * x_i`` with non-negative per-keyword weights.

    Weights are positional: weight ``i`` applies to the i-th *query*
    term.  Monotone whenever every weight is >= 0.
    """

    def __init__(self, weights: Sequence[float]):
        if any(w < 0 for w in weights):
            raise ValueError("weights must be non-negative for "
                             "monotonicity")
        self.weights = tuple(float(w) for w in weights)

    def combine(self, damped_scores: Sequence[float]) -> float:
        if len(damped_scores) != len(self.weights):
            raise ValueError(
                f"{len(self.weights)} weights for "
                f"{len(damped_scores)} keyword scores")
        return float(sum(w * s for w, s in zip(self.weights,
                                               damped_scores)))

    def upper_bound(self, per_keyword_bounds: Sequence[float]) -> float:
        return self.combine(per_keyword_bounds)


class RankingModel:
    """Bundles the local scorer, the damping function and the combiner."""

    def __init__(self, scorer: LocalScorer | None = None,
                 damping: DampingFunction | None = None,
                 combiner: Combiner | None = None):
        self.scorer = scorer if scorer is not None else TfIdfScorer()
        self.damping = damping if damping is not None else DampingFunction()
        self.combiner = combiner if combiner is not None else SumCombiner()

    def damped(self, local_score: float, occurrence_level: int,
               result_level: int) -> float:
        """Score of one occurrence as seen from a result at `result_level`."""
        if result_level > occurrence_level:
            raise ValueError("a result cannot be below its occurrence")
        return local_score * self.damping(occurrence_level - result_level)

    def score_result(self, best_damped_per_keyword: Sequence[float]) -> float:
        """Global score from the best damped occurrence of each keyword."""
        return self.combiner.combine(best_damped_per_keyword)

    def score_results(self, witness: np.ndarray) -> np.ndarray:
        """`score_result` over every row of ``witness[n, keywords]``.

        Sum, weighted sum and max fold the keyword columns left to
        right exactly as their `combine` folds one row, so the scores
        are the same to the bit; any other combiner (or a weight count
        `combine` will reject) is asked per row.
        """
        combiner, columns = self.combiner, list(witness.T)
        if columns and type(combiner) is MaxCombiner:
            return witness.max(axis=1)
        if columns and type(combiner) is SumCombiner:
            return sum(columns)
        if columns and type(combiner) is WeightedSumCombiner \
                and len(combiner.weights) == len(columns):
            return sum(w * c for w, c in zip(combiner.weights, columns))
        return np.array([combiner.combine(row) for row in witness.tolist()],
                        dtype=np.float64)
