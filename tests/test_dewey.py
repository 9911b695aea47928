"""Tests for Dewey id utilities (`repro.xmltree.dewey`)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.xmltree import dewey

deweys = st.lists(st.integers(min_value=1, max_value=9), min_size=1,
                  max_size=6).map(tuple)


class TestPrefixAndLCA:
    def test_common_prefix_basic(self):
        assert dewey.common_prefix((1, 1, 2), (1, 1, 3)) == (1, 1)

    def test_common_prefix_identical(self):
        assert dewey.common_prefix((1, 2), (1, 2)) == (1, 2)

    def test_common_prefix_one_is_prefix(self):
        assert dewey.common_prefix((1, 2), (1, 2, 3)) == (1, 2)

    def test_lca_two_nodes(self):
        assert dewey.lca((1, 1, 2, 2, 1), (1, 1, 2, 3, 2)) == (1, 1, 2)

    def test_lca_many_nodes(self):
        assert dewey.lca((1, 1, 1), (1, 1, 2), (1, 2)) == (1,)

    def test_lca_single_node_is_itself(self):
        assert dewey.lca((1, 4, 2)) == (1, 4, 2)

    def test_lca_no_args_raises(self):
        with pytest.raises(ValueError):
            dewey.lca()

    @given(deweys, deweys)
    def test_lca_is_prefix_of_both(self, d1, d2):
        anc = dewey.lca(d1, d2)
        assert dewey.is_prefix(anc, d1)
        assert dewey.is_prefix(anc, d2)

    @given(deweys, deweys)
    def test_lca_commutative(self, d1, d2):
        assert dewey.lca(d1, d2) == dewey.lca(d2, d1)


class TestRelations:
    def test_is_ancestor_proper(self):
        assert dewey.is_ancestor((1,), (1, 2))
        assert not dewey.is_ancestor((1, 2), (1, 2))
        assert not dewey.is_ancestor((1, 2), (1, 3))

    def test_compare_document_order(self):
        assert dewey.compare((1, 1), (1, 2)) == -1
        assert dewey.compare((1, 2), (1, 1)) == 1
        assert dewey.compare((1, 2), (1, 2)) == 0

    def test_compare_ancestor_precedes_descendant(self):
        assert dewey.compare((1, 1), (1, 1, 5)) == -1


class TestSubtreeRange:
    def test_upper_bound(self):
        assert dewey.subtree_upper_bound((1, 2, 3)) == (1, 2, 4)

    def test_upper_bound_empty_raises(self):
        with pytest.raises(ValueError):
            dewey.subtree_upper_bound(())

    @given(deweys, deweys)
    def test_range_membership_equals_prefix(self, d, other):
        rng = dewey.DeweyRange(d)
        assert (other in rng) == dewey.is_prefix(d, other)

    def test_slice_of_sorted_list(self):
        items = [(1,), (1, 1), (1, 1, 2), (1, 2), (1, 2, 1), (1, 3)]
        lo, hi = dewey.DeweyRange((1, 2)).slice_of(items)
        assert items[lo:hi] == [(1, 2), (1, 2, 1)]


class TestFormatting:
    def test_format(self):
        assert dewey.format_dewey((1, 1, 2)) == "1.1.2"

    @given(deweys)
    def test_roundtrip(self, d):
        text = dewey.format_dewey(d)
        assert tuple(int(part) for part in text.split(".")) == d


class TestVarintSizes:
    @pytest.mark.parametrize("value,size", [
        (0, 1), (127, 1), (128, 2), (16383, 2), (16384, 3),
    ])
    def test_varint_size(self, value, size):
        assert dewey.varint_size(value) == size

    def test_varint_negative_raises(self):
        with pytest.raises(ValueError):
            dewey.varint_size(-1)


class TestClosestInList:
    LIST = [(1, 1), (1, 3), (1, 5, 2)]

    def test_exact_hit(self):
        left, right = dewey.closest_in_list(self.LIST, (1, 3))
        assert left == right == (1, 3)

    def test_between(self):
        left, right = dewey.closest_in_list(self.LIST, (1, 2))
        assert left == (1, 1)
        assert right == (1, 3)

    def test_before_all(self):
        left, right = dewey.closest_in_list(self.LIST, (1, 0))
        assert left is None
        assert right == (1, 1)

    def test_after_all(self):
        left, right = dewey.closest_in_list(self.LIST, (2,))
        assert left == (1, 5, 2)
        assert right is None
