"""Dewey id utilities.

Dewey ids are the classic XML node labels used by the stack-based and
index-based baselines: the root is ``(1,)`` and a node's id is its
parent's id extended with the node's 1-based sibling ordinal.  Ancestor /
descendant tests and LCA computation reduce to prefix operations, and
document order equals lexicographic order of the ids.
"""

from __future__ import annotations

import bisect
from typing import List, Optional, Sequence, Tuple

Dewey = Tuple[int, ...]


def common_prefix(d1: Sequence[int], d2: Sequence[int]) -> Dewey:
    """Longest common prefix of two Dewey ids (= the LCA's Dewey id)."""
    limit = min(len(d1), len(d2))
    i = 0
    while i < limit and d1[i] == d2[i]:
        i += 1
    return tuple(d1[:i])


def lca(*deweys: Sequence[int]) -> Dewey:
    """Dewey id of the LCA of the given nodes.

    With ids from one tree the result is never empty (all ids share the
    root component).
    """
    if not deweys:
        raise ValueError("lca() needs at least one Dewey id")
    result: Sequence[int] = deweys[0]
    for d in deweys[1:]:
        result = common_prefix(result, d)
    return tuple(result)


def is_prefix(prefix: Sequence[int], dewey: Sequence[int]) -> bool:
    """True iff `prefix` is a (non-strict) prefix of `dewey`."""
    return len(prefix) <= len(dewey) and tuple(dewey[: len(prefix)]) == tuple(prefix)


def is_ancestor(d1: Sequence[int], d2: Sequence[int]) -> bool:
    """True iff the node with id `d1` is a *proper* ancestor of `d2`."""
    return len(d1) < len(d2) and is_prefix(d1, d2)


def compare(d1: Sequence[int], d2: Sequence[int]) -> int:
    """Document-order comparison: -1, 0 or 1.

    A node precedes its descendants (prefix sorts first), matching both
    document order and tuple comparison in Python.
    """
    t1, t2 = tuple(d1), tuple(d2)
    if t1 == t2:
        return 0
    return -1 if t1 < t2 else 1


def subtree_upper_bound(dewey: Sequence[int]) -> Dewey:
    """Smallest Dewey id greater than every id in `dewey`'s subtree.

    Useful for binary-searching the contiguous descendant range in a
    document-ordered list: descendants of ``d`` occupy
    ``[d, subtree_upper_bound(d))``.
    """
    if not dewey:
        raise ValueError("empty Dewey id")
    return tuple(dewey[:-1]) + (dewey[-1] + 1,)


def format_dewey(dewey: Sequence[int]) -> str:
    """Render as the dotted form used in the paper, e.g. ``1.1.2``."""
    return ".".join(map(str, dewey))




def varint_size(value: int) -> int:
    """Size in bytes of an unsigned LEB128 varint."""
    if value < 0:
        raise ValueError("varints are unsigned")
    size = 1
    while value >= 0x80:
        value >>= 7
        size += 1
    return size


class DeweyRange:
    """The contiguous document-order range covered by a subtree.

    ``DeweyRange(d)`` matches exactly the ids with prefix ``d``; the class
    provides the comparison keys for `bisect` over sorted Dewey lists.
    """

    __slots__ = ("low", "high")

    def __init__(self, dewey: Sequence[int]):
        self.low: Dewey = tuple(dewey)
        self.high: Dewey = subtree_upper_bound(dewey)

    def __contains__(self, dewey: Sequence[int]) -> bool:
        return self.low <= tuple(dewey) < self.high

    def slice_of(self, sorted_deweys: List[Dewey]) -> Tuple[int, int]:
        """Index range [lo, hi) of this subtree within a sorted list."""
        lo = bisect.bisect_left(sorted_deweys, self.low)
        hi = bisect.bisect_left(sorted_deweys, self.high)
        return lo, hi


def closest_in_list(sorted_deweys: List[Dewey], target: Sequence[int]
                    ) -> Tuple[Optional[Dewey], Optional[Dewey]]:
    """Nearest neighbours of `target` in a document-ordered Dewey list.

    Returns ``(left, right)`` where ``left`` is the rightmost id <= target
    and ``right`` the leftmost id >= target (either may be None at the
    list boundary).  This is the `lm`/`rm` primitive of the index-based
    baseline [Xu & Papakonstantinou 2005].
    """
    t = tuple(target)
    pos = bisect.bisect_left(sorted_deweys, t)
    if pos < len(sorted_deweys) and sorted_deweys[pos] == t:
        return t, t
    left = sorted_deweys[pos - 1] if pos > 0 else None
    right = sorted_deweys[pos] if pos < len(sorted_deweys) else None
    return left, right
