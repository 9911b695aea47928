"""Column-oriented JDewey inverted index (paper sections III-A/III-B).

Each term's occurrences are kept in JDewey order (a built index holds
them as node-table rows, `RowPostings`); column ``l`` holds the
``l``-th component of every sequence of length >= ``l``.  Property 3.1
makes every column sorted, so runs of the same number are contiguous --
the run view *is* the second compression scheme of section III-D, and
the join algorithms operate directly on the distinct-value arrays.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..scoring.ranking import RankingModel
from ..xmltree.jdewey import JDeweySeq
from ..xmltree.nodetable import NodeTable, parse_tree, path_tuples
from .compression import run_values, runs_of
from .tokenizer import Tokenizer


def expand_runs(lows: np.ndarray, counts: np.ndarray
                ) -> Tuple[np.ndarray, np.ndarray]:
    """``(rows, offsets)``: every row of the ranges ``[lows[j], lows[j]
    + counts[j])`` laid end to end, and where range j starts in that."""
    offsets = np.cumsum(counts) - counts
    rows = np.repeat(lows - offsets, counts) + np.arange(int(counts.sum()))
    return rows, offsets


class Column:
    """One level of one term's inverted list, held as its runs.

    Attributes
    ----------
    distinct:
        The level's JDewey numbers, ascending, each once: one run of the
        sorted column per number.
    run_starts:
        ``len(distinct) + 1`` row bounds: run i covers rows
        ``[run_starts[i], run_starts[i + 1])`` of the column, and the
        last entry is the column's length.  With ``distinct`` these are
        the (v, r, c) triples of section III-D.
    run_ordinals:
        The ordinal (in the owning postings' JDewey order) of each run's
        first sequence.  A run's sequences are consecutive ordinals
        (`ordinal_spans`), so this is every ordinal the column has.

    Nothing is held per row.  `values` and `seq_idx` expand the runs to
    one entry a row on every read; no query reads them.
    """

    __slots__ = ("level", "distinct", "run_starts", "run_ordinals")

    def __init__(self, level: int, distinct: np.ndarray,
                 run_starts: np.ndarray, run_ordinals: np.ndarray):
        self.level = level
        self.distinct = distinct
        self.run_starts = run_starts
        self.run_ordinals = run_ordinals

    @classmethod
    def of_rows(cls, level: int, values: np.ndarray,
                ordinals: np.ndarray) -> "Column":
        """The column whose row i holds `values[i]` for the sequence at
        `ordinals[i]` (both in JDewey order)."""
        distinct, run_starts = runs_of(values)
        return cls(level, distinct, run_starts, ordinals[run_starts[:-1]])

    def __len__(self) -> int:
        return int(self.run_starts[-1])

    @property
    def n_distinct(self) -> int:
        return len(self.distinct)

    @property
    def nbytes(self) -> int:
        """Bytes of the three run arrays: what a decoded column costs."""
        return int(self.distinct.nbytes + self.run_starts.nbytes
                   + self.run_ordinals.nbytes)

    @property
    def values(self) -> np.ndarray:
        """One JDewey number a row, expanded from the runs on each read
        (index builds, size models and tests; no query reads it)."""
        return run_values(self.distinct, self.run_starts)

    @property
    def seq_idx(self) -> np.ndarray:
        """Each row's sequence ordinal, expanded from the runs on each
        read (as `values`)."""
        return expand_runs(self.run_ordinals, np.diff(self.run_starts))[0]

    def runs_of(self, values: np.ndarray) -> np.ndarray:
        """The runs of `values`: their positions in `distinct`.

        Every value must be present in `distinct` (join outputs always
        are -- they come from intersecting distinct arrays); absent
        values would silently alias a neighbouring run.
        """
        return np.searchsorted(self.distinct, values)

    def ordinal_spans(self, runs: np.ndarray
                      ) -> Tuple[np.ndarray, np.ndarray]:
        """Sequence-ordinal spans [lo, hi) of the runs at positions
        `runs` (as `runs_of` gives them).

        The span is the erasure currency of section III-E, the range
        rule's "all the sequences within A_k".  It holds the run's
        sequences and nothing else -- ``hi - lo`` is the run's row
        count: every sequence of the run shares its first ``level``
        components, and JDewey tuples sort lexicographically, so no
        other sequence (a shorter one included) sorts between two of
        them.
        """
        lo = self.run_ordinals[runs]
        return lo, lo + (self.run_starts[runs + 1] - self.run_starts[runs])


class ColumnarPostings:
    """All occurrences of one term in the columnar encoding.

    Occurrences are in JDewey order; ``scores[i]`` is the local score
    ``g`` of occurrence ``i`` and ``lengths[i]`` its level, the length
    of its JDewey sequence ``seqs[i]``.  Columns are materialized
    lazily and cached.

    This class holds the sequences themselves: what a caller with
    sequences and no node table builds (the Table I size model, the
    storage round trip, tests).  A built index's postings are
    `RowPostings`.
    """

    #: ``(damping base, array)`` left here by `repro.index.scored`: the
    #: per-level list-head bounds and, once a level is ranked, the score
    #: order -- each computed once per term, not once per query.
    _level_maxima = _score_order = None

    def __init__(self, term: str, seqs: List[JDeweySeq],
                 scores: Sequence[float]):
        order = sorted(range(len(seqs)), key=lambda i: seqs[i])
        self.term = term
        self.seqs: List[JDeweySeq] = [seqs[i] for i in order]
        self.scores = np.asarray([scores[i] for i in order], dtype=np.float64)
        self.lengths = np.asarray([len(s) for s in self.seqs], dtype=np.int64)
        self.max_len = int(self.lengths.max()) if len(self.seqs) else 0
        self._columns: Dict[int, Column] = {}

    def __len__(self) -> int:
        return len(self.lengths)

    def column(self, level: int) -> Column:
        """The column for `level` (1-based); empty beyond `max_len`.
        The first read builds and keeps every level's, from one matrix
        of the sequences."""
        if level < 1:
            raise ValueError("levels are 1-based")
        columns = self._columns
        if not columns:
            paths = self._paths()
            for at in range(1, self.max_len + 1):
                ordinals = np.flatnonzero(self.lengths >= at)
                columns[at] = Column.of_rows(at, paths[ordinals, at - 1],
                                             ordinals)
        column = columns.get(level)
        if column is None:
            empty = np.empty(0, dtype=np.int64)
            column = columns[level] = Column.of_rows(level, empty, empty)
        return column

    def level_values(self) -> Iterator[np.ndarray]:
        """Each level's column values, level 1 to `max_len`, from one
        matrix of the sequences -- no `Column` is built or cached (what
        the container writer encodes)."""
        paths = self._paths()
        for level in range(1, self.max_len + 1):
            yield paths[self.lengths >= level, level - 1]

    def select(self, ordinals: np.ndarray) -> "ColumnarPostings":
        """The postings of the occurrences at `ordinals` (ascending),
        as one shard holds them."""
        seqs = self.seqs
        return ColumnarPostings(self.term,
                                [seqs[i] for i in ordinals.tolist()],
                                self.scores[ordinals])

    def _paths(self) -> np.ndarray:
        """Every occurrence's JDewey sequence as one zero-padded row of
        a matrix."""
        lengths = self.lengths
        flat = np.fromiter(chain.from_iterable(self.seqs), np.int64,
                           int(lengths.sum()))
        starts = np.repeat(np.cumsum(lengths) - lengths, lengths)
        matrix = np.zeros((len(lengths), self.max_len), dtype=np.int64)
        matrix[np.repeat(np.arange(len(lengths)), lengths),
               np.arange(len(flat)) - starts] = flat
        return matrix

    def max_score(self) -> float:
        return float(self.scores.max()) if len(self.scores) else 0.0


class RowPostings(ColumnarPostings):
    """A built index's postings of one term: the node-table rows of its
    occurrences, in JDewey order, and their scores.

    Sequences, lengths and columns derive from the table's ``parent``
    and ``number`` arrays by `NodeTable.paths`; no object per
    occurrence is held.
    """

    def __init__(self, term: str, nodes: NodeTable, rows: np.ndarray,
                 scores: np.ndarray):
        self.term = term
        self.nodes = nodes
        self.rows = rows
        self.scores = scores
        self.lengths = nodes.level[rows].astype(np.int64)
        self.max_len = int(self.lengths.max()) if len(rows) else 0
        self._columns: Dict[int, Column] = {}

    @property
    def seqs(self) -> List[JDeweySeq]:
        return path_tuples(*self.nodes.paths(self.rows, "number"))

    def select(self, ordinals: np.ndarray) -> "RowPostings":
        return RowPostings(self.term, self.nodes, self.rows[ordinals],
                           self.scores[ordinals])

    def _paths(self) -> np.ndarray:
        return self.nodes.paths(self.rows, "number")[0]


def batch_level_values(postings: Sequence[ColumnarPostings]
                       ) -> Tuple[np.ndarray, np.ndarray]:
    """Every level's values of every term in `postings`, laid end to
    end term by term and level by level, and where each column starts
    (closed by the total): ``values[bounds[c]:bounds[c + 1]]`` is a
    term's level as `level_values` gives it.  Postings holding rows of
    one node table are read with one `NodeTable.paths` sweep over all
    their rows; any other batch hands over each term's `level_values`."""
    if not all(isinstance(p, RowPostings) and p.nodes is postings[0].nodes
               for p in postings):
        columns = [v for p in postings for v in p.level_values()]
        return (np.concatenate(columns) if columns
                else np.empty(0, dtype=np.int64),
                np.cumsum([0] + [len(v) for v in columns]))
    rows = np.concatenate([p.rows for p in postings])
    if not len(rows):
        return np.empty(0, dtype=np.int64), np.zeros(1, dtype=np.int64)
    matrix, levels = postings[0].nodes.paths(rows, "number")
    depth = matrix.shape[1]
    term = np.repeat(np.arange(len(postings)),
                     [len(p.rows) for p in postings])
    # sizes[t, l]: term t's occurrences deeper than l, its level l + 1
    # column; the columns lie in (term, level) order.
    sizes = np.bincount(term * depth + levels - 1,
                        minlength=len(postings) * depth
                        ).reshape(-1, depth)[:, ::-1].cumsum(axis=1)[:, ::-1]
    starts = (np.cumsum(sizes) - sizes.ravel()).reshape(sizes.shape)
    values = np.empty(int(levels.sum()), dtype=np.int64)
    for level in range(depth):
        deep = np.flatnonzero(levels > level)
        # a deep occurrence's place in its term's column: its place in
        # `deep` less where its term's stretch of `deep` begins
        lead = starts[:, level] - (np.cumsum(sizes[:, level])
                                   - sizes[:, level])
        values[lead[term[deep]] + np.arange(len(deep))] = \
            matrix[deep, level]
    return values, np.append(starts[sizes > 0], len(values))


class ColumnarIndex:
    """JDewey columnar inverted index over one document.

    Results are materialized through ``nodes``, the document's
    `NodeTable`: a JDewey number plus its level uniquely identifies a
    node (the representational advantage section III-A highlights).

    Everything a reader asks goes through `term_postings`, `vocabulary`
    and ``in``; the disk-backed `repro.index.lazydisk.LazyColumnarIndex`
    overrides exactly those three.
    """

    def __init__(self, source, tokenizer: Optional[Tokenizer] = None,
                 ranking: Optional[RankingModel] = None, parsed=None):
        """The index of `source`: the `NodeTable` of `parsed` (a
        `repro.xmltree.parser.ParsedDocument`, whose texts are dropped
        once tokenized), or a JDewey-encoded tree, numbered by its nodes
        (`repro.xmltree.nodetable.parse_tree`).

        Tokenizes every node's text in bulk, scores each distinct (df,
        tf, tokens) once, and groups the occurrences by term in JDewey
        order with one sort."""
        if parsed is None:
            source, parsed = parse_tree(source)
        self.nodes = source
        self.tokenizer = tokenizer if tokenizer is not None else Tokenizer()
        self.ranking = ranking if ranking is not None else RankingModel()
        self._postings: Dict[str, ColumnarPostings] = {}
        found = self.tokenizer.occurrences(parsed.texts)
        parsed.texts = None
        self.n_docs = int(np.count_nonzero(found.tokens))
        rows, term, words = found.text, found.term, found.words
        scores = _local_scores(self.ranking.scorer, term, found.tf,
                               found.tokens[rows], self.n_docs)
        del found
        if not len(term):
            return
        order = np.lexsort((self.nodes.jdewey_ranks()[rows], term))
        rows, term, scores = rows[order], term[order], scores[order]
        del order
        bounds = [0, *(np.flatnonzero(np.diff(term)) + 1).tolist(),
                  len(term)]
        for lo, hi in zip(bounds, bounds[1:]):
            word = words[term[lo]]
            self._postings[word] = RowPostings(
                word, self.nodes, rows[lo:hi], scores[lo:hi])

    @classmethod
    def from_postings(cls, nodes,
                      postings: Dict[str, ColumnarPostings],
                      tokenizer: Optional[Tokenizer] = None,
                      ranking: Optional[RankingModel] = None,
                      n_docs: int = 0) -> "ColumnarIndex":
        """Wrap pre-built per-term postings (the persistence load path).

        `nodes` is the `NodeTable` the postings' JDewey numbers refer
        to (or a tree carrying that numbering, whose table is built).
        """
        index = cls.__new__(cls)
        index.nodes = NodeTable.of(nodes)
        index.tokenizer = tokenizer if tokenizer is not None else Tokenizer()
        index.ranking = ranking if ranking is not None else RankingModel()
        index._postings = dict(postings)
        index.n_docs = n_docs
        return index

    def __contains__(self, term: str) -> bool:
        return term in self._postings

    @property
    def vocabulary(self) -> List[str]:
        return sorted(self._postings)

    def term_postings(self, term: str) -> ColumnarPostings:
        existing = self._postings.get(term)
        if existing is not None:
            return existing
        return ColumnarPostings(term, [], [])

    def document_frequency(self, term: str) -> int:
        return len(self.term_postings(term))

    def query_postings(self, terms: Sequence[str]) -> List[ColumnarPostings]:
        """Per-term postings ordered shortest first (left-deep join order)."""
        postings = [self.term_postings(t) for t in terms]
        postings.sort(key=len)
        return postings

    def node_at(self, level: int, number: int):
        """Materialize the node identified by (level, JDewey number)."""
        return self.nodes.node_at(level, number)


def _local_scores(scorer, term: np.ndarray, tf: np.ndarray,
                  tokens: np.ndarray, n_docs: int) -> np.ndarray:
    """Each occurrence's local score ``g``.  A score depends on (df, tf,
    tokens) alone, so ``scorer.score`` runs once per distinct triple,
    on Python ints: every score is the one a call per occurrence would
    give."""
    df = np.bincount(term).astype(np.int32)[term]
    order = np.lexsort((tokens, tf, df))
    df, tf, tokens = df[order], tf[order], tokens[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = ((df[1:] != df[:-1]) | (tf[1:] != tf[:-1])
               | (tokens[1:] != tokens[:-1]))
    first = np.flatnonzero(new)
    score = scorer.score
    distinct = np.asarray(
        [score(f, d, n_docs, k) for f, d, k in zip(
            tf[first].tolist(), df[first].tolist(),
            tokens[first].tolist())], dtype=np.float64)
    scores = np.empty(len(order), dtype=np.float64)
    scores[order] = distinct[np.cumsum(new, dtype=np.int32) - 1]
    return scores
