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

from typing import Dict, Optional

import numpy as np

from ..xmltree.tree import XMLTree
from .text import DocumentWriter, PlantingPlan, TextSource, interleave, plant

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
        is the database's) by one `DocumentWriter` pass: texts are
        numbered entity by entity, items, people, open and closed
        auctions, then categories."""
        rng = np.random.default_rng(self.seed + 2)
        n_items, n_people, n_open, n_closed, n_categories = map(
            self._count, (_BASE_ITEMS, _BASE_PEOPLE, _BASE_OPEN,
                          _BASE_CLOSED, _BASE_CATEGORIES))
        region_of = rng.integers(len(_REGIONS), size=n_items)
        initial = rng.integers(1, 500, size=n_open)
        sizes = np.repeat([2, 2, 1, 1, 2],
                          [n_items, n_people, n_open, n_closed, n_categories])
        self.realized_df, injections = plant(
            self.plan, np.append(0, np.cumsum(sizes)), rng)
        words = self.description_words
        lengths = np.concatenate((
            np.tile([3, words], n_items), np.tile([2, 4], n_people),
            np.full(n_open + n_closed, words), np.tile([2, 6], n_categories)))
        # where the texts of items, people, open and closed auctions and
        # categories begin
        _, person, auction, closed, category = np.cumsum(
            [0, 2 * n_items, 2 * n_people, n_open, n_closed])
        which = np.zeros(len(lengths), dtype=np.int64)
        which[person: auction: 2] = 1
        writer = DocumentWriter()
        writer.texts((TextSource(self.seed, self.vocab_size),
                      TextSource(self.seed + 1, 800, prefix="person")),
                     which, lengths,
                     ("name", "text", "interest", "description"),
                     np.concatenate((
                         np.tile([0, 1], n_items), np.tile([0, 2], n_people),
                         np.ones(n_open + n_closed, dtype=np.int64),
                         np.tile([0, 3], n_categories))),
                     self.plan.all_terms(), injections)
        m = writer.markup
        order = np.argsort(region_of, kind="stable")
        items = interleave(n_items, m("<item>"), 2 * order,
                           m("<description>"), 2 * order + 1,
                           m("</description></item>"))
        bounds = 5 * np.searchsorted(region_of[order],
                                     np.arange(len(_REGIONS) + 1))
        parts = [[m("<site><regions>")]]
        for r, region in enumerate(_REGIONS):
            mine = items[bounds[r]: bounds[r + 1]]
            parts += [[m(f"<{region}>")], mine, [m(f"</{region}>")]] \
                if len(mine) else [[m(f"<{region}/>")]]
        values, at = np.unique(initial, return_inverse=True)
        people = person + 2 * np.arange(n_people)
        categories = category + 2 * np.arange(n_categories)
        parts += [
            [m("</regions><people>")],
            interleave(n_people, m("<person>"), people, m("<profile>"),
                       people + 1, m("</profile></person>")),
            [m("</people><open_auctions>")],
            interleave(n_open, m("<open_auction><annotation><description>"),
                       auction + np.arange(n_open),
                       m("</description></annotation>"),
                       np.array([m(f"<initial>{v}.00</initial>"
                                   "</open_auction>")
                                 for v in values.tolist()])[at]),
            [m("</open_auctions><closed_auctions>")],
            interleave(n_closed,
                       m("<closed_auction><annotation><description>"),
                       closed + np.arange(n_closed),
                       m("</description></annotation></closed_auction>")),
            [m("</closed_auctions><categories>")],
            interleave(n_categories, m("<category>"), categories,
                       categories + 1, m("</category>")),
            [m("</categories></site>")]]
        return XMLTree(document=writer.render(np.concatenate(parts)))
