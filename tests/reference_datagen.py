"""The per-element corpus generators `repro.datagen` used to run, kept
as the reference the bulk generators are held byte-identical to
(`tests/test_datagen_bytes.py`).

One Python string per text: a sentence at a time from the sampler, the
planted terms concatenated into the texts one injection at a time, and
the document nested as `element` strings, then encoded whole.
`dblp_document` and `xmark_document` are the generators' ``generate``
bodies over a generator's parameters; they return the document bytes
and the realized document frequencies.
"""

from typing import Dict, List, Tuple

import numpy as np

from repro.datagen.text import PlantingPlan, TextSource
from repro.datagen.xmark import (_BASE_CATEGORIES, _BASE_CLOSED, _BASE_ITEMS,
                                 _BASE_OPEN, _BASE_PEOPLE, _REGIONS)
from repro.xmltree.tree import _escape_text


class ScalarTextSource(TextSource):
    """`TextSource` drawing one sentence at a time: a sentence that does
    not fit in what is left of the buffer draws a fresh one."""

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


def dblp_document(self) -> Tuple[bytes, Dict[str, int]]:
    """`repro.datagen.DBLPGenerator` `self`'s document, element by
    element, and its realized document frequencies."""
    text = ScalarTextSource(self.seed, self.vocab_size)
    names = ScalarTextSource(self.seed + 1, 500, prefix="author")
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
    realized_df = apply_planting(self.plan, texts, entities, rng)
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

    return element("dblp", "", *(
        element("conference", "", element("name", f"conf{c:03d}"), *map(
            year, range(c * self.n_years, (c + 1) * self.n_years)))
        for c in range(self.n_conferences))).encode("utf-8"), realized_df


def xmark_document(self) -> Tuple[bytes, Dict[str, int]]:
    """`repro.datagen.XMarkGenerator` `self`'s document, element by
    element, and its realized document frequencies."""
    text = ScalarTextSource(self.seed, self.vocab_size)
    names = ScalarTextSource(self.seed + 1, 800, prefix="person")
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
    realized_df = apply_planting(self.plan, texts, entities, rng)
    by_region: List[List[List[int]]] = [[] for _ in _REGIONS]
    for item, region in zip(items, region_of.tolist()):
        by_region[region].append(item)

    def described(para: int) -> str:
        return element("description", "", element("text", texts[para]))

    return element(
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
    ).encode("utf-8"), realized_df
