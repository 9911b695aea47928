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

from typing import Dict, Optional

import numpy as np

from ..index.columnar import expand_runs
from ..xmltree.tree import XMLTree
from .text import DocumentWriter, PlantingPlan, TextSource, interleave, plant


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
        is the database's) by one `DocumentWriter` pass: texts are
        numbered titles and abstracts paper by paper, then authors."""
        rng = np.random.default_rng(self.seed + 2)

        # Zipf-ish venue sizes: big conferences get most of the papers.
        weights = (np.arange(1, self.n_conferences + 1) ** -0.8)
        conf_probs = weights / weights.sum()
        conf_of = rng.choice(self.n_conferences, size=self.n_papers,
                             p=conf_probs)
        year_of = rng.integers(self.n_years, size=self.n_papers)
        n_authors = 1 + rng.integers(self.max_authors, size=self.n_papers)

        n, per = self.n_papers, 2 if self.abstract_words else 1
        self.realized_df, injections = plant(
            self.plan, np.arange(0, n * per + 1, per), rng)
        writer = DocumentWriter()
        n_texts = n * per + int(n_authors.sum())
        writer.texts((TextSource(self.seed, self.vocab_size),
                      TextSource(self.seed + 1, 500, prefix="author")),
                     np.arange(n_texts) >= n * per,
                     np.append(np.tile([self.title_words,
                                        self.abstract_words][:per], n),
                               np.full(n_texts - n * per, 2)),
                     ("title", "abstract", "author"),
                     np.append(np.tile(np.arange(per), n),
                               np.full(n_texts - n * per, 2)),
                     self.plan.all_terms(), injections)
        # Document order: by venue, then year, then generation order.
        slot = conf_of * self.n_years + year_of
        order = np.argsort(slot, kind="stable")
        authors = (np.cumsum(n_authors) - n_authors + n * per)[order]
        papers = interleave(
            n, writer.markup("<paper>"), order * per,
            writer.markup("<authors>"),
            (expand_runs(authors, n_authors[order])[0], n_authors[order]),
            writer.markup("</authors>"), *[order * per + 1][:per - 1],
            writer.markup("</paper>"))
        entries = np.cumsum(np.append(0, n_authors[order] + 4 + per))
        n_slots = self.n_conferences * self.n_years
        slot_ends = np.cumsum(np.bincount(slot, minlength=n_slots))
        heads = []
        for s in range(n_slots):
            c, y = divmod(s, self.n_years)
            head = "</year>" if s else "<dblp>"
            if not y:
                head += ("</conference>" if s else "") \
                    + f"<conference><name>conf{c:03d}</name>"
            heads.append(writer.markup(f"{head}<year>{1996 + y}"))
        return XMLTree(document=writer.render(np.append(interleave(
            n_slots, np.array(heads),
            (papers, np.diff(entries[np.append(0, slot_ends)]))),
            writer.markup("</year></conference></dblp>"))))
