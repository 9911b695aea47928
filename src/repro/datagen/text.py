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
reproducible bit for bit.  A corpus is made in bulk, with no Python
object per text: each sampler draws every sentence in one walk
(`TextSource.draw`), `plant` draws a planted term's tfs at once, and a
`DocumentWriter` writes the document flat, piece by piece, to bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from ..index.columnar import expand_runs
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
    """Bulk Zipf word sampler over a synthetic vocabulary.

    Words come from a buffer of samples.  A sentence that does not fit
    in what is left of it draws a fresh buffer of `REFILL` words (more
    for a longer sentence) and drops the rest, so no sentence straddles
    two buffers.  `draw` takes the sentences of a whole corpus in one
    walk, refilling exactly where drawing them one at a time would.
    """

    #: Words a refill draws at least.
    REFILL = 65536

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

    def draw(self, lengths: Sequence[int]) -> np.ndarray:
        """The word ids (into ``words``) of consecutive sentences of
        `lengths` words, laid end to end."""
        lengths = np.asarray(lengths, dtype=np.int64)
        ends = np.cumsum(lengths)
        parts: List[np.ndarray] = []
        i = 0
        while i < len(lengths):
            # Sentences i..j-1 fit in what is left of the buffer.
            begin = int(ends[i] - lengths[i])
            j = int(np.searchsorted(
                ends, begin + len(self._buffer) - self._pos, "right"))
            if j == i:
                self._buffer = self.rng.choice(
                    len(self.words), size=max(int(lengths[i]), self.REFILL),
                    p=self._probs)
                self._pos = 0
                continue
            take = int(ends[j - 1]) - begin
            parts.append(self._buffer[self._pos: self._pos + take])
            self._pos += take
            i = j
        return np.concatenate(parts) if parts \
            else np.empty(0, dtype=np.int64)


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


def plant(plan: PlantingPlan, entity_starts: np.ndarray,
          rng: np.random.Generator
          ) -> Tuple[Dict[str, int], Tuple[np.ndarray, ...]]:
    """The realized document frequency per term, and ``(text, term,
    tf)``: text ``text[i]`` gets ``tf[i]`` copies of term ``term[i]``
    (its position in `PlantingPlan.all_terms`), in the order the
    injections are made.

    The texts planting may touch are numbered entity by entity: entity
    ``e`` (one paper, say) holds texts ``entity_starts[e]`` up to
    ``entity_starts[e + 1]``.  A planted term picks ``df`` distinct
    texts and draws their tfs at once; a correlated group picks
    entities and plants each of its terms in a chosen entity with
    probability ``rate``, a scalar draw at a time.
    """
    n_texts, n_entities = int(entity_starts[-1]), len(entity_starts) - 1
    realized: Dict[str, int] = {}
    parts: List[np.ndarray] = []
    for j, planted in enumerate(plan.planted):
        df = min(planted.df, n_texts)
        picks = rng.choice(n_texts, size=df, replace=False)
        lo, hi = planted.tf_range
        parts.append(np.stack((picks, np.full(df, j), rng.integers(
            lo, hi + 1, size=df) if hi > lo and df else np.full(df, lo))))
        realized[planted.term] = df
    hits: List[Tuple[int, int, int]] = []
    term_id = len(plan.planted)
    for group in plan.correlated:
        n = min(group.n_entities, n_entities)
        entity_picks = rng.choice(n_entities, size=n, replace=False)
        lo, hi = group.tf_range
        counts = {name: 0 for name in group.terms}
        for e in entity_picks.tolist():
            first, end = entity_starts[e: e + 2].tolist()
            for k, name in enumerate(group.terms if end > first else ()):
                if rng.random() > group.rate:
                    continue
                hits.append((first + int(rng.integers(end - first)),
                             term_id + k, int(rng.integers(lo, hi + 1))
                             if hi > lo else lo))
                counts[name] += 1
        term_id += len(group.terms)
        for name, count in counts.items():
            realized[name] = realized.get(name, 0) + count
    parts.append(np.array(hits, dtype=np.int64).reshape(-1, 3).T)
    return realized, tuple(np.concatenate(parts, axis=1).astype(np.int64))


def interleave(n: int, *columns) -> np.ndarray:
    """Layout entries (`DocumentWriter`) of `n` records, record by
    record: a column gives each record one entry (an ``int`` shared by
    all, or an array of one per record) or, as ``(entries, counts)``,
    the next ``counts[r]`` of `entries`."""
    counts = np.ones((n, len(columns)), dtype=np.int64)
    for j, column in enumerate(columns):
        if isinstance(column, tuple):
            counts[:, j] = column[1]
    at = (np.cumsum(counts) - counts.ravel()).reshape(counts.shape)
    out = np.empty(int(counts.sum()), dtype=np.int64)
    for j, column in enumerate(columns):
        if isinstance(column, tuple):
            out[expand_runs(at[:, j], column[1])[0]] = column[0]
        else:
            out[at[:, j]] = column
    return out


class DocumentWriter:
    """A generated document, written flat, piece by piece, to bytes.

    ``pool`` holds the document's pieces: markup, and each word twice,
    bare and after a space.  An *entry* is a run of pieces: a text's
    leaf element (`texts`) or markup (`markup`); `render` joins the
    entries a layout lists, a block at a time.  No string is made per
    text or per element.
    """

    #: Layout entries `render` joins at once (a join holds 80 bytes a
    #: piece while it runs).
    BLOCK = 1 << 9

    def __init__(self):
        self.pool: List[bytes] = []
        self._markup: List[int] = []

    def words(self, words: Sequence[str]) -> int:
        """Pool `words`: word ``i`` is piece ``base + 2 i`` bare and
        ``base + 2 i + 1`` after a space.  Returns ``base``."""
        base = len(self.pool)
        for word in words:
            data = _escape_text(word).encode("utf-8")
            self.pool += (data, b" " + data)
        return base

    def texts(self, sources: Sequence[TextSource], which: np.ndarray,
              lengths: np.ndarray, tags: Sequence[str], tag_of: np.ndarray,
              terms: Sequence[str], injections: Tuple[np.ndarray, ...]
              ) -> None:
        """The corpus's texts, entries ``0..len(lengths) - 1``: text
        ``t`` is ``lengths[t]`` words from ``sources[which[t]]`` (each
        source walks its texts in order), then its `injections`
        (`plant`) in the order they were made, joined by single spaces
        (a tf of 0 adds an empty word) in the leaf element
        ``tags[tag_of[t]]``, ``<tag/>`` when it has no words, as the
        canonical serialization (`repro.xmltree.tree.Node.to_xml`)."""
        # The injections text by text, in the order they were made;
        # `group` is where each one's text's run of them begins.
        order = np.argsort(injections[0], kind="stable")
        text, term, tf = (column[order] for column in injections)
        tf = np.maximum(tf, 0)
        first = np.ones(len(text), dtype=bool)
        first[1:] = text[1:] != text[:-1]
        group = np.maximum.accumulate(np.where(first, np.arange(len(text)),
                                               0))
        # A tf of 0 adds its empty word only to a text that has words by
        # then: words drawn, or an earlier injection with a tf.
        before = np.cumsum(tf) - tf
        count = np.where(tf > 0, tf, (lengths[text] > 0)
                         | (before > before[group]))
        before = np.cumsum(count) - count
        n = lengths + np.bincount(text, count, len(lengths)).astype(np.int64)
        self._n = np.where(n > 0, n + 2, 1)
        self._starts = starts = np.cumsum(self._n) - self._n
        self._words = words = np.empty(int(self._n.sum()), dtype=np.int32)
        for s, source in enumerate(sources):
            mine = which == s
            words[expand_runs(starts[mine] + 1, lengths[mine])[0]] = \
                self.words(source.words) + 1 + 2 * source.draw(lengths[mine])
        words[expand_runs(starts[text] + 1 + lengths[text]
                          + before - before[group], count)[0]] = np.repeat(
            np.where(tf > 0, self.words(terms) + 1 + 2 * term,
                     self.words([""]) + 1), count)
        words[starts[n > 0] + 1] -= 1       # a text's first word is bare
        tag_of = np.asarray(tag_of)
        words[starts] = np.where(n > 0,
                                 self._raw(f"<{t}>" for t in tags)[tag_of],
                                 self._raw(f"<{t}/>" for t in tags)[tag_of])
        words[(starts + n + 1)[n > 0]] = \
            self._raw(f"</{t}>" for t in tags)[tag_of[n > 0]]

    def _raw(self, markup: Iterable[str]) -> np.ndarray:
        """Pool `markup` as it is; each one's piece."""
        base = len(self.pool)
        self.pool += (xml.encode("utf-8") for xml in markup)
        return np.arange(base, len(self.pool))

    def markup(self, xml: str) -> int:
        """The entry of markup `xml` (after every text's)."""
        self._markup.append(int(self._raw([xml])[0]))
        return len(self._n) + len(self._markup) - 1

    def render(self, layout: np.ndarray) -> bytes:
        """The document: the entries of `layout`, joined."""
        pool = np.array(self.pool, dtype=object)
        words = np.append(self._words, self._markup)
        starts = np.append(self._starts, len(self._words)
                           + np.arange(len(self._markup)))
        n = np.append(self._n, np.ones(len(self._markup), dtype=np.int64))
        return b"".join(b"".join(pool[words[expand_runs(
            starts[entries], n[entries])[0]]].tolist())
            for entries in np.split(layout, range(self.BLOCK, len(layout),
                                                  self.BLOCK)))
