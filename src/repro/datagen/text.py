"""Synthetic text: Zipf-distributed vocabulary plus planted terms.

The paper's experiments control two quantities: per-keyword *frequency*
(posting-list length) and *correlation* (how often keywords co-occur
under the same entity).  Real DBLP gives both implicitly; our synthetic
corpora make them explicit:

* background text is sampled from a Zipf(s) distribution over an
  artificial vocabulary -- giving realistic skew to the "noise" terms;
* `PlantedTerm`s are injected into exactly ``df`` distinct text nodes,
  giving terms with exact posting-list lengths for the frequency sweeps;
* `CorrelatedGroup`s inject several terms into the *same* entities at a
  chosen co-occurrence rate, producing the high-correlation queries of
  Figure 10(b)-(c).

Everything is driven by a seeded `numpy` generator, so corpora are
reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..xmltree.tree import _escape_text


@dataclass(frozen=True)
class PlantedTerm:
    """A term injected into exactly `df` distinct text nodes.

    ``tf_range = (lo, hi)`` draws a per-node term frequency uniformly;
    the default (1, 1) keeps scores deterministic for unit tests, while
    benchmarks use a spread so local scores vary like real tf-idf does
    (a flat score distribution is adversarial for every TA-style
    algorithm and would mask the paper's early-termination effects).
    """

    term: str
    df: int
    tf_range: Tuple[int, int] = (1, 1)


@dataclass(frozen=True)
class CorrelatedGroup:
    """Terms injected together.

    Each of ``n_entities`` chosen entities receives every term of the
    group with probability ``rate`` (so ``rate = 1.0`` means the terms
    always co-occur in those entities; their document frequencies are
    about ``n_entities * rate``).  ``tf_range`` as in `PlantedTerm`.
    """

    terms: Sequence[str]
    n_entities: int
    rate: float = 1.0
    tf_range: Tuple[int, int] = (1, 1)


class TextSource:
    """Bulk Zipf word sampler over a synthetic vocabulary."""

    def __init__(self, seed: int, vocab_size: int = 3000,
                 zipf_s: float = 1.2, prefix: str = "w"):
        if vocab_size < 1:
            raise ValueError("vocabulary must be non-empty")
        self.rng = np.random.default_rng(seed)
        self.words = [f"{prefix}{i:05d}" for i in range(vocab_size)]
        ranks = np.arange(1, vocab_size + 1, dtype=np.float64)
        weights = ranks ** -zipf_s
        self._probs = weights / weights.sum()
        self._buffer = np.empty(0, dtype=np.int64)
        self._pos = 0

    def _refill(self, need: int) -> None:
        size = max(need, 65536)
        self._buffer = self.rng.choice(len(self.words), size=size,
                                       p=self._probs)
        self._pos = 0

    def words_batch(self, n: int) -> List[str]:
        """The next `n` sampled words."""
        if self._pos + n > len(self._buffer):
            self._refill(n)
        idx = self._buffer[self._pos: self._pos + n]
        self._pos += n
        return [self.words[i] for i in idx]

    def sentence(self, n_words: int) -> str:
        return " ".join(self.words_batch(n_words))


@dataclass
class PlantingPlan:
    """Planted-term configuration shared by both generators."""

    planted: List[PlantedTerm] = field(default_factory=list)
    correlated: List[CorrelatedGroup] = field(default_factory=list)

    def all_terms(self) -> List[str]:
        terms = [p.term for p in self.planted]
        for group in self.correlated:
            terms.extend(group.terms)
        return terms


def planted_label(freq: int) -> str:
    """A frequency as planted term names spell it (``10``, ``10k``)."""
    return f"{freq // 1000}k" if freq % 1000 == 0 and freq >= 1000 \
        else str(freq)


def frequency_ladder(frequencies: Sequence[int], per_step: int = 4,
                     prefix: str = "kw") -> List[PlantedTerm]:
    """`per_step` planted terms at each target frequency.

    Term names encode their frequency (``kw10-0``, ``kw10k-3``, ...) so
    workloads can pick by posting-list length without scanning the
    index.
    """
    return [PlantedTerm(f"{prefix}{planted_label(freq)}-{i}", freq)
            for freq in frequencies for i in range(per_step)]


def apply_planting(plan: PlantingPlan, texts: List[str],
                   entities: List[List[int]],
                   rng: np.random.Generator) -> Dict[str, int]:
    """Inject the plan's terms into the corpus.

    ``texts`` holds the text-bearing elements' texts, changed in place;
    ``entities[e]`` lists the positions in it of entity ``e``'s texts
    (e.g. one paper's title and abstract).  Planted terms pick ``df``
    distinct texts across all entities; correlated groups pick entities
    and plant every term of the group inside each chosen entity.
    Returns the realized document frequency per term.
    """
    realized: Dict[str, int] = {}
    flat = [i for mine in entities for i in mine]

    def inject(i: int, term: str, tf_range: Tuple[int, int]) -> None:
        lo, hi = tf_range
        tf = int(rng.integers(lo, hi + 1)) if hi > lo else lo
        addition = " ".join([term] * tf)
        texts[i] = f"{texts[i]} {addition}" if texts[i] else addition

    for planted in plan.planted:
        df = min(planted.df, len(flat))
        picks = rng.choice(len(flat), size=df, replace=False)
        for i in picks:
            inject(flat[i], planted.term, planted.tf_range)
        realized[planted.term] = df
    for group in plan.correlated:
        n = min(group.n_entities, len(entities))
        entity_picks = rng.choice(len(entities), size=n, replace=False)
        counts = {term: 0 for term in group.terms}
        for e in entity_picks:
            mine = entities[e]
            if not mine:
                continue
            for term in group.terms:
                if rng.random() > group.rate:
                    continue
                inject(mine[int(rng.integers(len(mine)))], term,
                       group.tf_range)
                counts[term] += 1
        for term, count in counts.items():
            realized[term] = realized.get(term, 0) + count
    return realized


def element(tag: str, text: str = "", *children: str) -> str:
    """One element as the canonical serialization writes it
    (`repro.xmltree.tree.Node.to_xml`): the text right after the start
    tag, then the children; ``<tag/>`` when it has neither."""
    if not text and not children:
        return f"<{tag}/>"
    return f"<{tag}>{_escape_text(text)}{''.join(children)}</{tag}>"
