"""Tests for erasure bookkeeping (`repro.algorithms.erasure`).

The engine's one eraser, `BitmapEraser`, is read and written in bulk;
the section III-E interval structure it replaced is the reference
(``tests/reference_erasure.py``).  Both keep the common behaviours below
-- the bitmap driven one range at a time through its bulk API -- and the
bulk bitmap must agree with the reference over nested marks.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.algorithms.erasure import BitmapEraser
from tests.reference_erasure import RangeCheckingEraser


def is_erased(eraser, ordinal: int) -> bool:
    """One ordinal's state through the bulk probe."""
    return not eraser.free_mask(np.asarray([ordinal], dtype=np.int64))[0]


def ranges(pairs):
    """[(lo, hi), ...] as the (lows, highs) arrays of a bulk call."""
    return (np.asarray([lo for lo, _ in pairs], dtype=np.int64),
            np.asarray([hi for _, hi in pairs], dtype=np.int64))


class OneRangeBitmap:
    """The bitmap marked and counted one range at a time, through
    `mark_many` / `erased_counts` with one-element arrays."""

    def __init__(self, size: int):
        self.bulk = BitmapEraser(size)

    def mark(self, lo: int, hi: int) -> None:
        self.bulk.mark_many(*ranges([(lo, hi)]))

    def erased_count(self, lo: int, hi: int) -> int:
        return int(self.bulk.erased_counts(*ranges([(lo, hi)]))[0])

    def free_mask(self, ordinals: np.ndarray) -> np.ndarray:
        return self.bulk.free_mask(ordinals)


@pytest.fixture(params=["bitmap", "interval"])
def eraser(request):
    kind = {"bitmap": OneRangeBitmap, "interval": RangeCheckingEraser}
    return kind[request.param](100)


class TestCommonBehaviour:
    def test_initially_clean(self, eraser):
        assert eraser.erased_count(0, 100) == 0
        assert not is_erased(eraser, 50)

    def test_mark_and_count(self, eraser):
        eraser.mark(10, 20)
        assert eraser.erased_count(0, 100) == 10
        assert eraser.erased_count(12, 15) == 3
        assert eraser.erased_count(20, 30) == 0

    def test_is_erased_boundaries(self, eraser):
        eraser.mark(10, 20)
        assert is_erased(eraser, 10)
        assert is_erased(eraser, 19)
        assert not is_erased(eraser, 9)
        assert not is_erased(eraser, 20)

    def test_empty_mark_noop(self, eraser):
        eraser.mark(5, 5)
        assert eraser.erased_count(0, 100) == 0

    def test_out_of_range_raises(self, eraser):
        with pytest.raises(ValueError):
            eraser.mark(-1, 5)
        with pytest.raises(ValueError):
            eraser.mark(90, 120)

    def test_free_mask(self, eraser):
        eraser.mark(3, 6)
        ordinals = np.asarray([2, 3, 4, 6, 7])
        assert list(eraser.free_mask(ordinals)) == [True, False, False,
                                                    True, True]

    def test_disjoint_marks_accumulate(self, eraser):
        eraser.mark(0, 5)
        eraser.mark(10, 15)
        assert eraser.erased_count(0, 20) == 10

    def test_containing_mark_swallows(self, eraser):
        # The contained-or-disjoint geometry: deep ranges first, then an
        # enclosing range at a higher level.
        eraser.mark(10, 12)
        eraser.mark(14, 16)
        eraser.mark(8, 20)
        assert eraser.erased_count(0, 100) == 12
        assert eraser.erased_count(8, 20) == 12


class TestIntervalSpecific:
    def test_partial_overlap_rejected(self):
        eraser = RangeCheckingEraser(100)
        eraser.mark(10, 20)
        with pytest.raises(ValueError):
            eraser.mark(15, 25)

    def test_intervals_view(self):
        eraser = RangeCheckingEraser(100)
        eraser.mark(30, 40)
        eraser.mark(10, 20)
        assert eraser.intervals == [(10, 20), (30, 40)]

    def test_swallow_merges_intervals(self):
        eraser = RangeCheckingEraser(100)
        eraser.mark(10, 12)
        eraser.mark(20, 22)
        eraser.mark(5, 50)
        assert eraser.intervals == [(5, 50)]

    def test_binary_search_count(self):
        eraser = RangeCheckingEraser(1000)
        for i in range(0, 1000, 100):
            eraser.mark(i, i + 10)
        assert eraser.erased_count(0, 1000) == 100
        # (100,110) fully inside, (200,210) clipped to 5 overlapping rows.
        assert eraser.erased_count(95, 205) == 15


# Contained-or-disjoint interval batches: draw disjoint level-0 ranges,
# then enclose random consecutive groups -- mirrors the join geometry.
@st.composite
def nested_marks(draw):
    size = draw(st.integers(40, 200))
    n = draw(st.integers(0, min(8, size // 6)))
    points = sorted(draw(st.lists(st.integers(0, size), min_size=2 * n,
                                  max_size=2 * n, unique=True)))
    base = [(points[2 * i], points[2 * i + 1]) for i in range(n)]
    marks = list(base)
    if n >= 2 and draw(st.booleans()):
        i = draw(st.integers(0, n - 2))
        j = draw(st.integers(i + 1, n - 1))
        marks.append((base[i][0], base[j][1]))
    return size, marks


@st.composite
def bulk_queries(draw, size):
    """Random (lows, highs) range arrays within [0, size]."""
    n = draw(st.integers(0, 12))
    pairs = []
    for _ in range(n):
        lo = draw(st.integers(0, size))
        pairs.append((lo, draw(st.integers(lo, size))))
    return ranges(pairs)


def marked(size, marks):
    """(bulk bitmap, reference) with the same marks: the bitmap in one
    `mark_many`, the reference one range at a time."""
    bitmap, reference = BitmapEraser(size), RangeCheckingEraser(size)
    bitmap.mark_many(*ranges(marks))
    for lo, hi in marks:
        reference.mark(lo, hi)
    return bitmap, reference


class TestBulkAPIs:
    """Property-based equivalence: the bulk bitmap against the reference
    on random nested marks."""

    @given(case=nested_marks(), data=st.data())
    def test_erased_counts_matches_scalar(self, case, data):
        bitmap, reference = marked(*case)
        lows, highs = data.draw(bulk_queries(case[0]))
        assert list(bitmap.erased_counts(lows, highs)) == \
            [reference.erased_count(int(lo), int(hi))
             for lo, hi in zip(lows, highs)]

    @given(case=nested_marks())
    def test_mark_many_matches_mark_sequence(self, case):
        """One `mark_many` (the difference array once the batch is dense)
        marks what one call per range (slice assignment) marks."""
        size, marks = case
        bulk, one_by_one = BitmapEraser(size), BitmapEraser(size)
        bulk.mark_many(*ranges(marks))
        for pair in marks:
            one_by_one.mark_many(*ranges([pair]))
        everyone = np.arange(size, dtype=np.int64)
        assert list(bulk.free_mask(everyone)) == \
            list(one_by_one.free_mask(everyone))

    @given(case=nested_marks(), data=st.data())
    def test_interleaved_marks_and_counts(self, case, data):
        """Counts stay correct as marks arrive between bulk queries
        (the cached prefix must invalidate)."""
        size, marks = case
        bitmap, reference = BitmapEraser(size), RangeCheckingEraser(size)
        for lo, hi in marks:
            bitmap.mark_many(*ranges([(lo, hi)]))
            reference.mark(lo, hi)
            lows, highs = data.draw(bulk_queries(size))
            assert list(bitmap.erased_counts(lows, highs)) == \
                [reference.erased_count(int(a), int(b))
                 for a, b in zip(lows, highs)]

    def test_bitmap_mark_many_overlapping_ranges(self):
        # The bitmap has no geometry restriction: arbitrary overlaps.
        eraser = BitmapEraser(50)
        eraser.mark_many(np.asarray([0, 5, 3]), np.asarray([10, 20, 7]))
        assert list(eraser.erased_counts(*ranges([(0, 50), (15, 30)]))) \
            == [20, 5]

    def test_bulk_validation(self):
        eraser = BitmapEraser(10)
        with pytest.raises(ValueError):
            eraser.mark_many(np.asarray([-1]), np.asarray([5]))
        with pytest.raises(ValueError):
            eraser.erased_counts(np.asarray([0]), np.asarray([11]))
        with pytest.raises(ValueError):
            eraser.erased_counts(np.asarray([5]), np.asarray([2]))
        with pytest.raises(ValueError):
            eraser.mark_many(np.asarray([0, 1]), np.asarray([5]))

    def test_bulk_empty_inputs(self):
        eraser = BitmapEraser(10)
        eraser.mark_many(*ranges([]))
        assert len(eraser.erased_counts(*ranges([]))) == 0
        assert list(eraser.free_mask(np.arange(10))) == [True] * 10

    @given(case=nested_marks(), data=st.data())
    def test_free_mask_matches_is_erased(self, case, data):
        size, marks = case
        bitmap, reference = marked(size, marks)
        n = data.draw(st.integers(0, 20))
        ordinals = np.asarray(
            data.draw(st.lists(st.integers(0, size - 1), min_size=n,
                               max_size=n)), dtype=np.int64)
        # The reference's scalar count over [o, o + 1) is the
        # independent probe.
        assert list(bitmap.free_mask(ordinals)) == \
            [reference.erased_count(int(o), int(o) + 1) == 0
             for o in ordinals]


class TestEquivalence:
    @given(nested_marks())
    def test_bitmap_and_interval_agree(self, case):
        size, marks = case
        bitmap, reference = marked(size, marks)
        step = max(1, size // 7)
        pairs = [(lo, hi) for lo in range(0, size, step)
                 for hi in range(lo, size, step)]
        assert list(bitmap.erased_counts(*ranges(pairs))) == \
            [reference.erased_count(lo, hi) for lo, hi in pairs]
        everyone = np.arange(size, dtype=np.int64)
        assert list(bitmap.free_mask(everyone)) == \
            list(reference.free_mask(everyone))
