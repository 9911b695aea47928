"""Query workloads for the experiments (paper section V).

The paper evaluates three workload families:

* **frequency sweeps** (Figure 9(a)-(d)): queries with one fixed
  high-frequency keyword and k-1 keywords from a target low-frequency
  range; forty random picks per range.
* **equal-frequency** (Figure 9(e)-(f)): all keywords from the same
  frequency range.
* **correlated** (Figure 10(b)-(c)): hand-picked keyword sets with high
  co-occurrence ("sensor network", "xml keyword search") -- realized
  here by the generators' `CorrelatedGroup` planting.

`WorkloadBuilder` assembles all three from planted term names, and
`random_terms_in_range` draws from the organic vocabulary like the
paper's random selection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..index.inverted import InvertedIndex
from .text import CorrelatedGroup, PlantedTerm, PlantingPlan, planted_label


@dataclass(frozen=True)
class QuerySpec:
    """One benchmark query: terms plus the sweep cell it belongs to."""

    terms: tuple
    low_frequency: int
    n_keywords: int
    label: str = ""

    def __iter__(self):
        return iter(self.terms)


class WorkloadBuilder:
    """Builds the planting plan and the query sets for one experiment.

    Usage::

        wb = WorkloadBuilder(high_freq=10_000,
                             low_freqs=(10, 100, 1_000, 10_000),
                             per_cell=4)
        tree = DBLPGenerator(seed=7, n_papers=30_000,
                             plan=wb.plan()).generate()
        queries = wb.frequency_sweep(n_keywords=3)
    """

    def __init__(self, high_freq: int, low_freqs: Sequence[int],
                 per_cell: int = 4, max_keywords: int = 5,
                 correlated_entities: int = 400, seed: int = 11,
                 tf_range: tuple = (1, 4)):
        self.high_freq = high_freq
        self.low_freqs = tuple(low_freqs)
        self.per_cell = per_cell
        self.max_keywords = max_keywords
        self.correlated_entities = correlated_entities
        self.rng = np.random.default_rng(seed)
        # Per-node term frequency spread: gives planted keywords the
        # score variance real tf-idf text has, which the top-K pruning
        # experiments rely on.
        self.tf_range = tf_range

    # ------------------------------------------------------------------
    # planting plan
    # ------------------------------------------------------------------

    def plan(self) -> PlantingPlan:
        planted: List[PlantedTerm] = [
            PlantedTerm(self._high_term(i), self.high_freq, self.tf_range)
            for i in range(self.per_cell)
        ]
        for freq in self.low_freqs:
            # One block of `max_keywords` low terms per query cell, so
            # both the sweep and the equal-frequency sets fit.
            n_terms = self.per_cell * self.max_keywords
            for i in range(n_terms):
                planted.append(PlantedTerm(self._low_term(freq, i), freq,
                                           self.tf_range))
        correlated = [
            CorrelatedGroup(
                tuple(f"corr{g}-{j}" for j in range(n_terms)),
                self.correlated_entities, rate=0.9,
                tf_range=self.tf_range)
            for g, n_terms in enumerate((2, 2, 3, 3, 4, 5))
        ]
        return PlantingPlan(planted, correlated)

    def _high_term(self, i: int) -> str:
        return f"hi{planted_label(self.high_freq)}-{i}"

    def _low_term(self, freq: int, i: int) -> str:
        return f"lo{planted_label(freq)}-{i}"

    # ------------------------------------------------------------------
    # query sets
    # ------------------------------------------------------------------

    def frequency_sweep(self, n_keywords: int) -> List[QuerySpec]:
        """Figure 9(a)-(d): fixed high keyword, low keywords per range."""
        if not 2 <= n_keywords <= self.max_keywords:
            raise ValueError(
                f"n_keywords must be in [2, {self.max_keywords}]")
        queries: List[QuerySpec] = []
        for freq in self.low_freqs:
            for cell in range(self.per_cell):
                base = cell * self.max_keywords
                lows = tuple(self._low_term(freq, base + j)
                             for j in range(n_keywords - 1))
                terms = (self._high_term(cell),) + lows
                queries.append(QuerySpec(terms, freq, n_keywords,
                                         f"k{n_keywords}-low{freq}"))
        return queries

    def equal_frequency(self, n_keywords: int, freq: int) -> List[QuerySpec]:
        """Figure 9(e)-(f): all keywords at the same frequency."""
        if not 1 <= n_keywords <= self.max_keywords:
            raise ValueError(
                f"n_keywords must be in [1, {self.max_keywords}]")
        queries: List[QuerySpec] = []
        for cell in range(self.per_cell):
            base = cell * self.max_keywords
            terms = tuple(self._low_term(freq, base + j)
                          for j in range(n_keywords))
            queries.append(QuerySpec(terms, freq, n_keywords,
                                     f"k{n_keywords}-eq{freq}"))
        return queries

    def correlated_queries(self) -> List[QuerySpec]:
        """Figure 10(b)-(c): the planted high-correlation keyword sets."""
        queries: List[QuerySpec] = []
        for g, n_terms in enumerate((2, 2, 3, 3, 4, 5)):
            terms = tuple(f"corr{g}-{j}" for j in range(n_terms))
            queries.append(QuerySpec(terms, self.correlated_entities,
                                     n_terms, f"corr-{g}"))
        return queries


def random_terms_in_range(index: InvertedIndex, low: int, high: int,
                          count: int, seed: int = 0,
                          exclude_prefixes: Sequence[str] = ("hi", "lo",
                                                             "corr")
                          ) -> List[str]:
    """Organic vocabulary terms with document frequency in [low, high].

    Mirrors the paper's "forty queries randomly selected within each
    frequency range"; planted terms are excluded by prefix so the draw
    only sees natural Zipf vocabulary.
    """
    rng = np.random.default_rng(seed)
    candidates = [
        term for term in index.vocabulary
        if low <= index.document_frequency(term) <= high
        and not any(term.startswith(p) for p in exclude_prefixes)
    ]
    if len(candidates) <= count:
        return candidates
    picks = rng.choice(len(candidates), size=count, replace=False)
    return [candidates[i] for i in sorted(picks)]
