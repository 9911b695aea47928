"""Synthetic XMark-like corpus.

Mirrors the XMark auction-site schema the paper's second data set uses:

    site
      regions / {africa, asia, europe, namerica, samerica} / item
        -> name, description (text)
      people / person -> name, profile/interest...
      open_auctions / open_auction -> annotation/description, bidder...
      closed_auctions / closed_auction -> annotation/description
      categories / category -> name, description

Element counts scale linearly with ``scale`` (XMark's factor-1.0 counts,
scaled down to laptop size); text comes from the shared Zipf sampler and
planted terms give the controlled workloads (one *entity* = one item /
person / auction).  Compared to DBLP the tree is deeper and less
uniform, exercising the level-by-level machinery on varied shapes.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..xmltree.tree import XMLTree
from .text import PlantingPlan, TextSource, apply_planting, element

_REGIONS = ("africa", "asia", "europe", "namerica", "samerica")

# XMark factor-1.0 element counts (approximate) that `scale` multiplies.
_BASE_ITEMS = 21_750
_BASE_PEOPLE = 25_500
_BASE_OPEN = 12_000
_BASE_CLOSED = 9_750
_BASE_CATEGORIES = 1_000


class XMarkGenerator:
    """Deterministic XMark-like tree generator."""

    def __init__(self, seed: int = 7, scale: float = 0.01,
                 description_words: int = 12, vocab_size: int = 3000,
                 plan: Optional[PlantingPlan] = None):
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.seed = seed
        self.scale = scale
        self.description_words = description_words
        self.vocab_size = vocab_size
        self.plan = plan if plan is not None else PlantingPlan()
        self.realized_df: Dict[str, int] = {}

    def _count(self, base: int) -> int:
        return max(1, int(base * self.scale))

    def generate(self) -> XMLTree:
        """The document, written straight to its bytes (JDewey numbering
        is the database's)."""
        text = TextSource(self.seed, self.vocab_size)
        names = TextSource(self.seed + 1, 800, prefix="person")
        rng = np.random.default_rng(self.seed + 2)
        texts: List[str] = []           # every text planting may touch
        entities: List[List[int]] = []  # per entity, its texts' positions

        def entity(*sentences: str) -> List[int]:
            mine = list(range(len(texts), len(texts) + len(sentences)))
            texts.extend(sentences)
            entities.append(mine)
            return mine

        n_items = self._count(_BASE_ITEMS)
        region_of = rng.integers(len(_REGIONS), size=n_items)
        items = [entity(text.sentence(3),
                        text.sentence(self.description_words))
                 for _ in range(n_items)]
        people = [entity(names.sentence(2), text.sentence(4))
                  for _ in range(self._count(_BASE_PEOPLE))]
        open_auctions = [(entity(text.sentence(self.description_words)),
                          f"{rng.integers(1, 500)}.00")
                         for _ in range(self._count(_BASE_OPEN))]
        closed_auctions = [entity(text.sentence(self.description_words))
                           for _ in range(self._count(_BASE_CLOSED))]
        categories = [entity(text.sentence(2), text.sentence(6))
                      for _ in range(self._count(_BASE_CATEGORIES))]
        self.realized_df = apply_planting(self.plan, texts, entities, rng)
        by_region: List[List[List[int]]] = [[] for _ in _REGIONS]
        for item, region in zip(items, region_of.tolist()):
            by_region[region].append(item)

        def described(para: int) -> str:
            return element("description", "", element("text", texts[para]))

        return XMLTree(document=element(
            "site", "",
            element("regions", "", *(element(region, "", *(
                element("item", "", element("name", texts[name]),
                        described(para)) for name, para in mine))
                for region, mine in zip(_REGIONS, by_region))),
            element("people", "", *(element(
                "person", "", element("name", texts[name]),
                element("profile", "", element("interest", texts[interest])))
                for name, interest in people)),
            element("open_auctions", "", *(element(
                "open_auction", "", element("annotation", "", described(para)),
                element("initial", initial))
                for (para,), initial in open_auctions)),
            element("closed_auctions", "", *(element("closed_auction", "", (
                element("annotation", "", described(para))))
                for (para,) in closed_auctions)),
            element("categories", "", *(element(
                "category", "", element("name", texts[name]),
                element("description", texts[description]))
                for name, description in categories)),
        ).encode("utf-8"))
