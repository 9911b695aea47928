"""Synthetic DBLP-like corpus.

The paper regroups the (very shallow) DBLP document by
conference/journal and then year, giving the tree

    dblp / conference / year / paper / {title, authors/author, abstract}

which is the structure generated here.  Conferences get Zipf-ish sizes
(big venues dominate, like the real DBLP), papers carry sampled titles,
author elements and optional abstracts, and planted terms provide the
frequency- and correlation-controlled keywords for the experiment
workloads (paper Figures 9 and 10).
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..xmltree.tree import XMLTree
from .text import PlantingPlan, TextSource, apply_planting, element


class DBLPGenerator:
    """Deterministic DBLP-like tree generator.

    Parameters
    ----------
    seed:
        Drives every random choice; same seed, same tree.
    n_papers:
        Total paper elements.
    n_conferences / n_years:
        Grouping fan-out above the papers.
    title_words / abstract_words:
        Text volume per paper; ``abstract_words = 0`` drops abstracts.
    plan:
        Planted terms / correlated groups (one *entity* = one paper).
    """

    def __init__(self, seed: int = 7, n_papers: int = 2000,
                 n_conferences: int = 20, n_years: int = 8,
                 title_words: int = 8, abstract_words: int = 0,
                 max_authors: int = 4, vocab_size: int = 3000,
                 plan: Optional[PlantingPlan] = None):
        if n_papers < 1:
            raise ValueError("n_papers must be positive")
        self.seed = seed
        self.n_papers = n_papers
        self.n_conferences = n_conferences
        self.n_years = n_years
        self.title_words = title_words
        self.abstract_words = abstract_words
        self.max_authors = max_authors
        self.vocab_size = vocab_size
        self.plan = plan if plan is not None else PlantingPlan()
        self.realized_df: Dict[str, int] = {}

    def generate(self) -> XMLTree:
        """The document, written straight to its bytes (JDewey numbering
        is the database's)."""
        text = TextSource(self.seed, self.vocab_size)
        names = TextSource(self.seed + 1, 500, prefix="author")
        rng = np.random.default_rng(self.seed + 2)

        # Zipf-ish venue sizes: big conferences get most of the papers.
        weights = (np.arange(1, self.n_conferences + 1) ** -0.8)
        conf_probs = weights / weights.sum()
        conf_of = rng.choice(self.n_conferences, size=self.n_papers,
                             p=conf_probs)
        year_of = rng.integers(self.n_years, size=self.n_papers)

        texts: List[str] = []           # titles and abstracts
        entities: List[List[int]] = []  # per paper, its texts' positions
        authors: List[str] = []         # per paper, its authors element
        for _ in range(self.n_papers):
            entities.append([len(texts)])
            texts.append(text.sentence(self.title_words))
            authors.append(element("authors", "", *(
                element("author", names.sentence(2))
                for _ in range(1 + int(rng.integers(self.max_authors))))))
            if self.abstract_words:
                entities[-1].append(len(texts))
                texts.append(text.sentence(self.abstract_words))
        self.realized_df = apply_planting(self.plan, texts, entities, rng)
        # Document order: by venue, then year, then generation order.
        slots: List[List[int]] = [
            [] for _ in range(self.n_conferences * self.n_years)]
        for p, slot in enumerate((conf_of * self.n_years + year_of).tolist()):
            slots[slot].append(p)

        def paper(p: int) -> str:
            title, *abstract = entities[p]
            return element("paper", "", element("title", texts[title]),
                           authors[p], *(element("abstract", texts[a])
                                         for a in abstract))

        def year(slot: int) -> str:
            return element("year", str(1996 + slot % self.n_years),
                           *map(paper, slots[slot]))

        return XMLTree(document=element("dblp", "", *(
            element("conference", "", element("name", f"conf{c:03d}"), *map(
                year, range(c * self.n_years, (c + 1) * self.n_years)))
            for c in range(self.n_conferences))).encode("utf-8"))
