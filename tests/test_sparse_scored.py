"""Tests for sparse column indices and the score-ordered column view."""

import numpy as np
import pytest

from repro.algorithms.erasure import BitmapEraser
from repro.index.columnar import ColumnarPostings
from repro.index.scored import ScoredPostings
from repro.index.sparse import SparseColumnIndex
from tests.reference_topk import GroupedScoredPostings


class TestSparseColumnIndex:
    @pytest.fixture
    def distinct(self):
        return np.asarray(sorted({i * 3 for i in range(500)}), dtype=np.int64)

    def test_lookup_hits(self, distinct):
        sparse = SparseColumnIndex(distinct, granularity=16)
        for value in (0, 3, 749 * 2 + 1 if False else 1497, 600):
            pos = sparse.lookup(distinct, value)
            if value % 3 == 0 and value <= int(distinct[-1]):
                assert pos is not None and distinct[pos] == value
            else:
                assert pos is None

    def test_lookup_misses(self, distinct):
        sparse = SparseColumnIndex(distinct, granularity=16)
        assert sparse.lookup(distinct, 4) is None
        assert sparse.lookup(distinct, -1) is None
        assert sparse.lookup(distinct, 10 ** 9) is None

    def test_lookup_every_member(self, distinct):
        sparse = SparseColumnIndex(distinct, granularity=7)
        for i, value in enumerate(distinct):
            assert sparse.lookup(distinct, int(value)) == i

    def test_probe_block_bounds(self, distinct):
        sparse = SparseColumnIndex(distinct, granularity=16)
        lo, hi = sparse.probe_block(int(distinct[40]))
        assert lo <= 40 < hi
        assert hi - lo <= 16

    def test_empty_column(self):
        empty = np.empty(0, dtype=np.int64)
        sparse = SparseColumnIndex(empty)
        assert sparse.lookup(empty, 5) is None

    def test_size_grows_with_column(self):
        small = SparseColumnIndex(np.arange(100, dtype=np.int64), 8)
        large = SparseColumnIndex(np.arange(10_000, dtype=np.int64), 8)
        assert large.size_bytes() > small.size_bytes()

    def test_invalid_granularity(self):
        with pytest.raises(ValueError):
            SparseColumnIndex(np.arange(5, dtype=np.int64), 0)


SEQS = [(1, 2, 5), (1, 2, 6), (1, 3), (1, 4, 7, 9), (1, 4, 8, 10)]
RAW = [0.5, 0.9, 0.7, 0.8, 0.3]


@pytest.fixture
def scored():
    # Sequences of mixed lengths with hand-picked scores (paper Fig. 7).
    return ScoredPostings(ColumnarPostings("t", SEQS, RAW), damping_base=0.9)


@pytest.fixture
def grouped():
    """The same term in the paper's length-grouped form: the reference
    the single score order replaced (`tests/reference_topk.py`)."""
    return GroupedScoredPostings(ColumnarPostings("t", SEQS, RAW),
                                 damping_base=0.9)


def drain(cursor):
    items = []
    while (item := cursor.pop()) is not None:
        items.append(item)
    return items


class TestScoredPostings:
    def test_groups_by_length(self, scored, grouped):
        assert set(grouped.groups) == {2, 3, 4}
        assert len(grouped.groups[3]) == 2
        # One order over all of them where the groups used to be, kept
        # as each occurrence's rank in it.
        assert sorted(scored.rank.tolist()) == list(range(len(SEQS)))

    def test_group_scores_descending(self, scored, grouped):
        for group in grouped.groups.values():
            scores = list(group.scores)
            assert scores == sorted(scores, reverse=True)
        # The one order descends by score * base ** length: within a
        # length by local score, and across lengths consistently at
        # every level.
        postings = scored.postings
        key = postings.scores * 0.9 ** postings.lengths
        ordered = key[np.argsort(scored.rank)].tolist()
        assert ordered == sorted(ordered, reverse=True)

    def test_order_built_once_per_postings(self, scored):
        again = ScoredPostings(scored.postings, damping_base=0.9)
        assert again.rank is scored.rank
        other_base = ScoredPostings(scored.postings, damping_base=0.5)
        assert other_base.rank is not scored.rank

    def test_damp(self, scored):
        assert scored.damp(1.0, length=4, level=2) == pytest.approx(0.81)

    def test_max_damped_level1(self, scored, grouped):
        # Level 1 candidates: 0.9*0.9^2, 0.7*0.9, 0.8*0.9^3 -> 0.729.
        assert scored.max_damped(1) == pytest.approx(0.9 * 0.81)
        assert scored.max_damped(1) == pytest.approx(grouped.max_damped(1))

    def test_max_damped_level3(self, scored):
        # Only length >= 3 groups: max(0.9, 0.8*0.9) = 0.9.
        assert scored.max_damped(3) == pytest.approx(0.9)

    def test_max_damped_beyond_depth(self, scored):
        assert scored.max_damped(9) == 0.0

    def test_invalid_damping_base(self, scored):
        with pytest.raises(ValueError):
            ScoredPostings(scored.postings, damping_base=0.0)


class TestColumnCursor:
    """The ranked input of one column: `ScoredPostings.ranked` against
    the reference `ColumnCursor` it replaced."""

    def test_emits_in_descending_damped_order(self, scored, grouped):
        _runs, scores = scored.ranked(2)
        assert scores.tolist() == sorted(scores.tolist(), reverse=True)
        assert len(scores) == 5  # every sequence reaches level 2
        assert scores.tolist() == pytest.approx(
            [item[2] for item in drain(grouped.cursor(2))])

    def test_level_filters_short_sequences(self, scored, grouped):
        runs, _scores = scored.ranked(3)
        assert len(runs) == 4  # (1, 3) has no level-3 component
        assert len(drain(grouped.cursor(3))) == 4

    def test_peek_matches_pop(self, grouped):
        cursor = grouped.cursor(2)
        while (peeked := cursor.peek_score()) is not None:
            number, ordinal, score = cursor.pop()
            assert score == pytest.approx(peeked)

    def test_skip_filters_ordinals(self, scored, grouped):
        erased = {0, 1}
        cursor = grouped.cursor(2, skip=lambda o: o in erased)
        popped = drain(cursor)
        assert {item[1] for item in popped}.isdisjoint(erased)
        assert len(popped) == 3
        eraser = BitmapEraser(len(SEQS))
        eraser.mark_many([0], [2])
        runs, scores = scored.ranked(2, eraser)
        numbers = scored.postings.column(2).distinct[runs]
        assert numbers.tolist() == [n for n, _o, _s in popped]
        assert scores.tolist() == pytest.approx([s for _n, _o, s in popped])

    def test_exhausted(self, grouped):
        cursor = grouped.cursor(2)
        drain(cursor)
        assert cursor.exhausted
        assert cursor.peek_score() is None
        assert cursor.pop() is None

    def test_numbers_match_sequences(self, scored, grouped):
        for number, ordinal, _score in drain(grouped.cursor(2)):
            assert SEQS[ordinal][1] == number
        runs, scores = scored.ranked(2)
        numbers = scored.postings.column(2).distinct[runs]
        by_score = {round(0.9 ** (len(seq) - 2) * raw, 12): seq[1]
                    for seq, raw in zip(SEQS, RAW)}
        assert [by_score[round(s, 12)] for s in scores.tolist()] == \
            numbers.tolist()

    def test_retrieved_counter(self, grouped):
        cursor = grouped.cursor(4)
        cursor.pop()
        cursor.pop()
        assert cursor.retrieved == 2
