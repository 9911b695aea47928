"""Tests for erasure bookkeeping (`repro.algorithms.erasure`)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.algorithms.erasure import (_ARRAY_MAX, _CHUNK, BitmapEraser,
                                      IntervalEraser, RoaringEraser,
                                      make_eraser)


def is_erased(eraser, ordinal: int) -> bool:
    """One ordinal's state through the bulk probe -- the scalar
    ``is_erased`` left `src/` with the per-tuple cursors."""
    return not eraser.free_mask(np.asarray([ordinal], dtype=np.int64))[0]


@pytest.fixture(params=["bitmap", "interval", "roaring"])
def eraser(request):
    return make_eraser(request.param, 100)


class TestCommonBehaviour:
    def test_initially_clean(self, eraser):
        assert eraser.total_erased == 0
        assert eraser.erased_count(0, 100) == 0
        assert not is_erased(eraser, 50)

    def test_mark_and_count(self, eraser):
        eraser.mark(10, 20)
        assert eraser.total_erased == 10
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
        assert eraser.total_erased == 0

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
        assert eraser.total_erased == 10
        assert eraser.erased_count(0, 20) == 10

    def test_containing_mark_swallows(self, eraser):
        # The contained-or-disjoint geometry: deep ranges first, then an
        # enclosing range at a higher level.
        eraser.mark(10, 12)
        eraser.mark(14, 16)
        eraser.mark(8, 20)
        assert eraser.total_erased == 12
        assert eraser.erased_count(8, 20) == 12


class TestIntervalSpecific:
    def test_partial_overlap_rejected(self):
        eraser = IntervalEraser(100)
        eraser.mark(10, 20)
        with pytest.raises(ValueError):
            eraser.mark(15, 25)

    def test_intervals_view(self):
        eraser = IntervalEraser(100)
        eraser.mark(30, 40)
        eraser.mark(10, 20)
        assert eraser.intervals == [(10, 20), (30, 40)]

    def test_swallow_merges_intervals(self):
        eraser = IntervalEraser(100)
        eraser.mark(10, 12)
        eraser.mark(20, 22)
        eraser.mark(5, 50)
        assert eraser.intervals == [(5, 50)]

    def test_binary_search_count(self):
        eraser = IntervalEraser(1000)
        for i in range(0, 1000, 100):
            eraser.mark(i, i + 10)
        assert eraser.erased_count(0, 1000) == 100
        # (100,110) fully inside, (200,210) clipped to 5 overlapping rows.
        assert eraser.erased_count(95, 205) == 15


class TestRoaringSpecific:
    def test_overlapping_marks_union(self):
        # Unlike the interval eraser, roaring accepts arbitrary overlap.
        eraser = RoaringEraser(100)
        eraser.mark(10, 30)
        eraser.mark(20, 50)
        assert eraser.total_erased == 40
        assert eraser.runs == [(10, 50)]

    def test_single_points_use_array_container(self):
        eraser = RoaringEraser(1000)
        for i in (3, 99, 7):
            eraser.mark(i, i + 1)
        assert eraser.container_kinds == {"array": 1, "run": 0,
                                          "bitset": 0}
        assert eraser.runs == [(3, 4), (7, 8), (99, 100)]

    def test_range_marks_use_run_container(self):
        eraser = RoaringEraser(1000)
        eraser.mark(10, 40)
        eraser.mark(100, 200)
        assert eraser.container_kinds["run"] == 1

    def test_array_promotes_to_bitset(self):
        eraser = RoaringEraser(2 * _CHUNK)
        for i in range(0, 2 * (_ARRAY_MAX + 1), 2):
            eraser.mark(i, i + 1)
        assert eraser.container_kinds["bitset"] == 1
        assert eraser.total_erased == _ARRAY_MAX + 1
        assert is_erased(eraser, 2 * _ARRAY_MAX)
        assert not is_erased(eraser, 2 * _ARRAY_MAX + 1)

    def test_mark_spanning_chunks(self):
        eraser = RoaringEraser(3 * _CHUNK)
        lo, hi = _CHUNK - 10, 2 * _CHUNK + 10
        eraser.mark(lo, hi)
        assert eraser.total_erased == hi - lo
        assert len(eraser.container_kinds) == 3
        assert eraser.erased_count(0, 3 * _CHUNK) == hi - lo
        assert is_erased(eraser, _CHUNK)
        assert is_erased(eraser, 2 * _CHUNK + 9)
        assert not is_erased(eraser, 2 * _CHUNK + 10)

    def test_mark_many_spanning_chunks_matches_scalar(self):
        rng = np.random.default_rng(17)
        size = 4 * _CHUNK
        lows = rng.integers(0, size - 500, size=200)
        highs = lows + rng.integers(0, 500, size=200)
        bulk = RoaringEraser(size)
        bulk.mark_many(lows, highs)
        slow = RoaringEraser(size)
        for lo, hi in zip(lows.tolist(), highs.tolist()):
            slow.mark(lo, hi)
        assert bulk.total_erased == slow.total_erased
        assert bulk.runs == slow.runs


class TestFactory:
    def test_modes(self):
        assert isinstance(make_eraser("bitmap", 10), BitmapEraser)
        assert isinstance(make_eraser("interval", 10), IntervalEraser)
        assert isinstance(make_eraser("roaring", 10), RoaringEraser)

    def test_unknown_mode(self):
        for mode in ("nope", "auto"):       # no size-picking mode
            with pytest.raises(ValueError):
                make_eraser(mode, 10)

    def test_engines_default_to_the_bitmap(self, small_db):
        from repro.algorithms.hybrid import HybridTopKSearch
        from repro.algorithms.join_based import JoinBasedSearch
        from repro.algorithms.topk_keyword import TopKKeywordSearch

        for engine in (JoinBasedSearch, TopKKeywordSearch,
                       HybridTopKSearch):
            assert engine(small_db.columnar_index).eraser_mode == "bitmap"


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
    lows, highs = [], []
    for _ in range(n):
        lo = draw(st.integers(0, size))
        hi = draw(st.integers(lo, size))
        lows.append(lo)
        highs.append(hi)
    return (np.asarray(lows, dtype=np.int64),
            np.asarray(highs, dtype=np.int64))


class TestBulkAPIs:
    """Property-based equivalence: bulk vs scalar on random sequences."""

    @pytest.mark.parametrize("mode", ["bitmap", "interval", "roaring"])
    @given(case=nested_marks(), data=st.data())
    def test_erased_counts_matches_scalar(self, mode, case, data):
        size, marks = case
        eraser = make_eraser(mode, size)
        for lo, hi in marks:
            eraser.mark(lo, hi)
        lows, highs = data.draw(bulk_queries(size))
        bulk = eraser.erased_counts(lows, highs)
        scalar = [eraser.erased_count(int(lo), int(hi))
                  for lo, hi in zip(lows, highs)]
        assert list(bulk) == scalar

    @pytest.mark.parametrize("mode", ["bitmap", "interval", "roaring"])
    @given(case=nested_marks())
    def test_mark_many_matches_mark_sequence(self, mode, case):
        size, marks = case
        one_by_one = make_eraser(mode, size)
        for lo, hi in marks:
            one_by_one.mark(lo, hi)
        bulk = make_eraser(mode, size)
        bulk.mark_many(np.asarray([m[0] for m in marks], dtype=np.int64),
                       np.asarray([m[1] for m in marks], dtype=np.int64))
        assert bulk.total_erased == one_by_one.total_erased
        everyone = np.arange(size, dtype=np.int64)
        assert list(bulk.free_mask(everyone)) == \
            list(one_by_one.free_mask(everyone))

    @given(case=nested_marks(), data=st.data())
    def test_interleaved_marks_and_counts(self, case, data):
        """Counts stay correct as marks arrive between bulk queries
        (the cached prefix/array views must invalidate)."""
        size, marks = case
        bitmap = BitmapEraser(size)
        interval = IntervalEraser(size)
        roaring = RoaringEraser(size)
        for lo, hi in marks:
            bitmap.mark(lo, hi)
            interval.mark(lo, hi)
            roaring.mark(lo, hi)
            lows, highs = data.draw(bulk_queries(size))
            assert list(bitmap.erased_counts(lows, highs)) == \
                list(interval.erased_counts(lows, highs)) == \
                list(roaring.erased_counts(lows, highs)) == \
                [bitmap.erased_count(int(a), int(b))
                 for a, b in zip(lows, highs)]

    def test_bitmap_mark_many_overlapping_ranges(self):
        # The bitmap has no geometry restriction: arbitrary overlaps.
        eraser = BitmapEraser(50)
        eraser.mark_many(np.asarray([0, 5, 3]), np.asarray([10, 20, 7]))
        assert eraser.total_erased == 20
        assert eraser.erased_count(0, 50) == 20

    @pytest.mark.parametrize("mode", ["bitmap", "interval", "roaring"])
    def test_bulk_validation(self, mode):
        eraser = make_eraser(mode, 10)
        with pytest.raises(ValueError):
            eraser.mark_many(np.asarray([-1]), np.asarray([5]))
        with pytest.raises(ValueError):
            eraser.erased_counts(np.asarray([0]), np.asarray([11]))
        with pytest.raises(ValueError):
            eraser.erased_counts(np.asarray([5]), np.asarray([2]))
        with pytest.raises(ValueError):
            eraser.mark_many(np.asarray([0, 1]), np.asarray([5]))

    @pytest.mark.parametrize("mode", ["bitmap", "interval", "roaring"])
    def test_bulk_empty_inputs(self, mode):
        eraser = make_eraser(mode, 10)
        eraser.mark_many(np.empty(0, dtype=np.int64),
                         np.empty(0, dtype=np.int64))
        assert eraser.total_erased == 0
        counts = eraser.erased_counts(np.empty(0, dtype=np.int64),
                                      np.empty(0, dtype=np.int64))
        assert len(counts) == 0

    @pytest.mark.parametrize("mode", ["bitmap", "interval", "roaring"])
    @given(case=nested_marks(), data=st.data())
    def test_free_mask_matches_is_erased(self, mode, case, data):
        size, marks = case
        eraser = make_eraser(mode, size)
        for lo, hi in marks:
            eraser.mark(lo, hi)
        n = data.draw(st.integers(0, 20))
        ordinals = np.asarray(
            data.draw(st.lists(st.integers(0, size - 1), min_size=n,
                               max_size=n)), dtype=np.int64)
        mask = eraser.free_mask(ordinals)
        # The scalar count over [o, o + 1) is the independent probe.
        assert list(mask) == [eraser.erased_count(int(o), int(o) + 1) == 0
                              for o in ordinals]


class TestEquivalence:
    @given(nested_marks())
    def test_bitmap_and_interval_agree(self, case):
        size, marks = case
        bitmap = BitmapEraser(size)
        interval = IntervalEraser(size)
        for lo, hi in marks:
            bitmap.mark(lo, hi)
            interval.mark(lo, hi)
        assert bitmap.total_erased == interval.total_erased
        for lo in range(0, size, max(1, size // 7)):
            for hi in range(lo, size, max(1, size // 7)):
                assert bitmap.erased_count(lo, hi) == \
                    interval.erased_count(lo, hi)
        everyone = np.arange(size, dtype=np.int64)
        assert list(bitmap.free_mask(everyone)) == \
            list(interval.free_mask(everyone))

    @given(nested_marks())
    def test_roaring_agrees_with_bitmap(self, case):
        size, marks = case
        bitmap = BitmapEraser(size)
        roaring = RoaringEraser(size)
        for lo, hi in marks:
            bitmap.mark(lo, hi)
            roaring.mark(lo, hi)
        assert bitmap.total_erased == roaring.total_erased
        ordinals = np.arange(size, dtype=np.int64)
        assert list(bitmap.free_mask(ordinals)) == \
            list(roaring.free_mask(ordinals))
        lows = np.arange(0, size, 7, dtype=np.int64)
        highs = np.minimum(lows + 11, size)
        assert list(bitmap.erased_counts(lows, highs)) == \
            list(roaring.erased_counts(lows, highs))
