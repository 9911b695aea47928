"""Column-oriented JDewey inverted index (paper sections III-A/III-B).

Each term's occurrences are kept in JDewey order (a built index holds
them as node-table rows, `RowPostings`); column ``l`` holds the
``l``-th component of every sequence of length >= ``l``.  Property 3.1
makes every column sorted, so runs of the same number are contiguous --
the run view *is* the second compression scheme of section III-D, and
the join algorithms operate directly on the distinct-value arrays.

A `ColumnarIndex` is built in bulk: one in-place sort of a packed
(term, JDewey rank, tf) key per occurrence groups the occurrences, and
scores are looked up per distinct (df, tf, tokens), a chunk at a time.
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
    rows = np.repeat(lows - offsets, counts)
    rows += np.arange(len(rows))
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

    _lengths = None

    def __init__(self, term: str, nodes: NodeTable, rows: np.ndarray,
                 scores: np.ndarray, max_len: Optional[int] = None):
        self.term = term
        self.nodes = nodes
        self.rows = rows
        self.scores = scores
        self.max_len = max_len if max_len is not None \
            else int(nodes.level[rows].max()) if len(rows) else 0
        self._columns: Dict[int, Column] = {}

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def lengths(self) -> np.ndarray:
        """Each occurrence's level, read off the table on first use and
        kept: a query reads a few dozen terms' of thousands."""
        if self._lengths is None:
            self._lengths = self.nodes.level[self.rows].astype(np.int64)
        return self._lengths

    @property
    def seqs(self) -> List[JDeweySeq]:
        return path_tuples(*self.nodes.paths(self.rows, "number"))

    def select(self, ordinals: np.ndarray) -> "RowPostings":
        return RowPostings(self.term, self.nodes, self.rows[ordinals],
                           self.scores[ordinals])

    def _paths(self) -> np.ndarray:
        return self.nodes.paths(self.rows, "number")[0]


def batch_level_values(postings: Sequence[ColumnarPostings],
                       keep: Optional[np.ndarray] = None
                       ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every level's values of every term in `postings`, laid end to
    end term by term and level by level, where each column starts
    (closed by the total), and the occurrences' lengths laid end to
    end: ``values[bounds[c]:bounds[c + 1]]`` is a term's level as
    `level_values` gives it.  `keep`, one flag per occurrence of the
    batch (laid end to end), reads only the flagged ones (one shard's).
    Postings holding rows of one node table are read with one
    `NodeTable.paths` sweep over all their rows; any other batch hands
    over each term's `level_values` (of its `select`ed occurrences)."""
    if not all(isinstance(p, RowPostings) and p.nodes is postings[0].nodes
               for p in postings):
        if keep is not None:
            postings = [p.select(np.flatnonzero(mine)) for p, mine in zip(
                postings, np.split(keep, np.cumsum(list(map(len, postings)))))]
        columns = [v for p in postings for v in p.level_values()]
        return (np.concatenate(columns) if columns
                else np.empty(0, dtype=np.int64),
                np.cumsum([0] + [len(v) for v in columns]),
                np.concatenate([p.lengths for p in postings]))
    rows = np.concatenate([p.rows for p in postings])
    term = np.repeat(np.arange(len(postings)), [len(p) for p in postings])
    if keep is not None:
        rows, term = rows[keep], term[keep]
    if not len(rows):
        empty = np.empty(0, dtype=np.int64)
        return empty, np.zeros(1, dtype=np.int64), empty
    matrix, levels = postings[0].nodes.paths(rows, "number")
    depth = matrix.shape[1]
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
    return values, np.append(starts[sizes > 0], len(values)), levels


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

        Tokenizes every node's text in bulk, then groups the
        occurrences by term in JDewey order with one in-place sort of
        one key each (term, JDewey rank, tf; `_pack`), and scores them
        a chunk at a time, each distinct (df, tf, tokens) once
        (`_scores`).  A term's postings are views of the sorted arrays."""
        if parsed is None:
            source, parsed = parse_tree(source)
        self.nodes = source
        self.tokenizer = tokenizer if tokenizer is not None else Tokenizer()
        self.ranking = ranking if ranking is not None else RankingModel()
        self._postings: Dict[str, ColumnarPostings] = {}
        found = self.tokenizer.occurrences(parsed.texts)
        parsed.texts = None
        self.n_docs = int(np.count_nonzero(found.tokens))
        if not len(found.term):
            return
        ranks = self.nodes.jdewey_ranks()
        key, (term_shift, rank_shift) = _pack(
            (found.term, len(found.words)), (ranks[found.text], len(ranks)),
            (found.tf, int(found.tf.max()) + 1))
        words, tokens = found.words, found.tokens
        # Each array goes once read off (the build's transient is these).
        del found
        key.sort()
        row_of_rank = np.empty(len(ranks), dtype=np.int32)
        row_of_rank[ranks] = np.arange(len(ranks), dtype=np.int32)
        del ranks
        rows = row_of_rank[(key & ((1 << term_shift) - 1)) >> rank_shift]
        del row_of_rank
        tf = (key & ((1 << rank_shift) - 1)).astype(np.int32)
        key >>= term_shift
        ends = np.append(np.flatnonzero(key[1:] != key[:-1]) + 1, len(key))
        starts = np.append(0, ends[:-1])
        term_ids = key[starts].tolist()
        del key
        scores = _scores(self.ranking.scorer, tf, ends - starts,
                         tokens[rows], self.n_docs)
        del tf
        max_len = np.maximum.reduceat(self.nodes.level[rows], starts)
        for lo, hi, t, deepest in zip(starts.tolist(), ends.tolist(),
                                      term_ids, max_len.tolist()):
            self._postings[words[t]] = RowPostings(
                words[t], self.nodes, rows[lo:hi], scores[lo:hi], deepest)

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


#: Bits a packed key may use: an ``int64`` sorts as its value.
KEY_BITS = 63
#: Occurrences `_scores` looks up at once.
SCORE_CHUNK = 1 << 14


def _pack(*fields: Tuple[np.ndarray, int]) -> Tuple[np.ndarray, List[int]]:
    """One ``int64`` per entry holding `fields`, each ``(values,
    bound)`` with every value in ``[0, bound)``, the first the most
    significant: sorting the keys sorts the entries by the fields in
    turn.  Returns the keys and each field's shift but the last's (0).
    Raises `OverflowError` when the bounds need more than `KEY_BITS`
    bits, rather than let a key wrap and mis-sort."""
    widths = [max(int(bound) - 1, 0).bit_length() for _, bound in fields]
    if sum(widths) > KEY_BITS:
        raise OverflowError(
            f"fields of {' + '.join(map(str, widths))} bits do not pack "
            f"into one {KEY_BITS}-bit key")
    shifts = np.cumsum(widths[::-1])[::-1][1:].tolist() + [0]
    key = fields[0][0].astype(np.int64)
    key <<= shifts[0]
    for (values, _), shift in zip(fields[1:], shifts[1:]):
        key |= np.left_shift(values, shift, dtype=np.int64) if shift \
            else values
    return key, shifts[:-1]


def _scores(scorer, tf: np.ndarray, df_runs: np.ndarray,
            tokens: np.ndarray, n_docs: int) -> np.ndarray:
    """Each occurrence's local score ``g``, the occurrences grouped by
    term (``df_runs``: each term's run, which is its df).  A score
    depends on (df, tf, tokens) alone, so ``scorer.score`` runs once per
    distinct triple, on Python ints: every score is the one a call per
    occurrence would give.  The triples are packed (`_pack`) and looked
    up `SCORE_CHUNK` occurrences at a time."""
    columns = (np.repeat(df_runs.astype(np.int32), df_runs), tf, tokens)
    bounds = [int(column.max()) + 1 for column in columns]
    known: Dict[int, float] = {}
    scores = np.empty(len(tf), dtype=np.float64)
    for lo in range(0, len(tf), SCORE_CHUNK):
        key, (df_at, tf_at) = _pack(*zip(
            (column[lo: lo + SCORE_CHUNK] for column in columns), bounds))
        distinct, at = np.unique(key, return_inverse=True)
        for triple in distinct.tolist():
            if triple not in known:
                known[triple] = scorer.score(
                    (triple & ((1 << df_at) - 1)) >> tf_at, triple >> df_at,
                    n_docs, triple & ((1 << tf_at) - 1))
        scores[lo: lo + SCORE_CHUNK] = np.array(
            [known[triple] for triple in distinct.tolist()])[at]
    return scores
