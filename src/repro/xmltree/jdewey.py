"""JDewey encoding (paper section III-A).

The JDewey numbering assigns every node an integer that is

1. unique among all the nodes at the same tree level, and
2. order-preserving across levels: if ``v1`` and ``v2`` are at the same
   level and ``jnum(v1) > jnum(v2)``, every child of ``v1`` has a larger
   number than every child of ``v2``.

A node's *JDewey sequence* is the vector of JDewey numbers on its
root-to-node path.  Requirement (2) gives the column-sortedness property
(Property 3.1 of the paper): if two sequences are ordered, they are
ordered component-wise, so every column of a sequence-sorted inverted
list is itself sorted.

`jdewey_numbers` assigns the numbers over the node table's arrays,
reserving ``gap`` extra numbers after every node's child block so that
insertions are cheap.  `JDeweyEncoder` maintains them over the `Node`
tree: when a block overflows, a partial re-encode relocates the
smallest safe ancestor's subtree to the numeric end of its levels (the
paper's "only the subtree rooted at 1.1 needs to be re-encoded").
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .tree import Node, XMLTree

JDeweySeq = Tuple[int, ...]


def jdewey_sort_key(seq: Sequence[int]) -> Tuple[int, ...]:
    """Sort key for the JDewey order.

    The paper's order is ``S1 < S2`` iff some component differs with
    ``S1(j) < S2(j)`` or ``S1`` is a prefix of ``S2`` -- exactly Python's
    tuple order, so the key is the tuple itself.
    """
    return tuple(seq)


def check_componentwise(s1: Sequence[int], s2: Sequence[int]) -> bool:
    """Property 3.1: if ``s1 <= s2`` then they compare component-wise."""
    if tuple(s1) > tuple(s2):
        s1, s2 = s2, s1
    limit = min(len(s1), len(s2))
    return all(s1[i] <= s2[i] for i in range(limit))


class _Block:
    """The reserved child-number block of one parent node."""

    __slots__ = ("end", "next_free")

    def __init__(self, end: int, next_free: int):
        self.end = end          # exclusive
        self.next_free = next_free


def jdewey_numbers(parent: np.ndarray, level: np.ndarray,
                   ordinal: np.ndarray, gap: int = 0
                   ) -> Tuple[np.ndarray, np.ndarray, List[int]]:
    """The numbering rule over the node table's arrays (rows in document
    order): ``(number, block, level_next)``.

    The root is 1.  Level by level, the nodes of a level in document
    order each reserve a block of their child count plus `gap` numbers
    at the level below, one after the other; a child takes its parent's
    block start plus its ordinal minus one.  ``block[row]`` starts the
    block `row` reserved; ``level_next[l - 1]`` is the next unused
    number at level ``l``.
    """
    n = len(parent)
    reserve = np.bincount(parent[1:], minlength=n).astype(np.int64) + gap
    by_level = np.argsort(level, kind="stable")
    depth = int(level.max())
    bounds = np.searchsorted(level[by_level], np.arange(1, depth + 2))
    block = np.zeros(n, dtype=np.int64)
    number = np.ones(n, dtype=np.int64)
    level_next = [2 + gap]
    for lo, hi in zip(bounds, bounds[1:]):
        rows = by_level[lo:hi]
        ends = np.cumsum(reserve[rows])
        block[rows] = ends + 1 - reserve[rows]
        if ends[-1]:
            level_next.append(int(ends[-1]) + 1)
    rows = by_level[bounds[1]:]
    number[rows] = block[parent[rows]] + ordinal[rows] - 1
    return number, block, level_next


class JDeweyEncoder:
    """Maintains the JDewey numbers of one `XMLTree` under inserts and
    deletes.

    The numbers come from `table` (a database's node table, whose
    numbers may be what an earlier re-encode assigned), else from the
    rule over the tree's serialization.  Where they are the rule's, so
    are the child blocks; numbers a re-encode moved leave every block
    full, so the next insert below them re-encodes.

    Parameters
    ----------
    gap:
        Number of spare child slots reserved per parent (0 = densest
        numbering, best for static documents and for the index-size
        experiment; >0 trades number magnitude for cheap insertion).
    """

    def __init__(self, tree: XMLTree, gap: int = 0, table=None):
        if not tree.frozen:
            raise ValueError("encode a frozen tree (call tree.freeze())")
        self.tree = tree
        self.gap = gap
        self._blocks: Dict[int, _Block] = {}  # id(parent) -> child block
        self.reencode_count = 0               # partial re-encodes performed
        if table is None:
            from .parser import parse_document

            table = parse_document(tree.document)
        parent, level = table.parent, table.level
        number, block, self._level_next = jdewey_numbers(
            parent, level, table.ordinal, gap)
        given = getattr(table, "number", None)
        given = number if given is None else np.asarray(given, np.int64)
        tree.number(given)
        nodes = tree.nodes
        if not np.array_equal(given, number):
            # Numbers a re-encode moved: no block has a free slot, so
            # the next insert re-encodes.
            self._level_next = [int(given[level == at].max()) + 1
                                for at in range(1, int(level.max()) + 1)]
            return
        children = np.bincount(parent[1:], minlength=len(nodes))
        for row in np.flatnonzero(children + gap).tolist():
            free = int(block[row] + children[row])
            self._blocks[id(nodes[row])] = _Block(free + gap, free)

    def _next_at_level(self, level: int, count: int) -> int:
        """Reserve `count` consecutive numbers at `level`; return the first."""
        while len(self._level_next) < level:
            self._level_next.append(1)
        start = self._level_next[level - 1]
        self._level_next[level - 1] = start + count
        return start

    def _encode_children(self, parent: Node) -> None:
        n = len(parent.children)
        if n == 0 and self.gap == 0:
            return
        # Level from the JDewey sequence, not the Dewey id: nodes inserted
        # after freeze() have no Dewey id, but their parents are always
        # encoded first.
        level = len(parent.jdewey) + 1
        start = self._next_at_level(level, n + self.gap)
        block = _Block(start + n + self.gap, start)
        self._blocks[id(parent)] = block
        for child in parent.children:
            self._assign(child, block.next_free)
            block.next_free += 1

    def _assign(self, node: Node, number: int) -> None:
        parent_seq = node.parent.jdewey if node.parent is not None else ()
        node.jdewey = parent_seq + (number,)

    def level_width(self, level: int) -> int:
        """Largest number handed out at `level` (storage-size proxy)."""
        if level > len(self._level_next):
            return 0
        return self._level_next[level - 1] - 1

    # ------------------------------------------------------------------
    # maintenance: insert / delete
    # ------------------------------------------------------------------

    def insert(self, parent: Node, node: Node,
               position: Optional[int] = None) -> Node:
        """Insert `node` as a child of `parent`, keeping the invariants.

        Numbers inside a parent's reserved block are interchangeable (the
        invariant only constrains numbers *across* parents), so any free
        slot works regardless of the sibling position.  When the block is
        exhausted the smallest safe ancestor subtree is re-encoded at the
        numeric end of its levels, exactly as section III-A describes.
        """
        node.parent = parent
        if position is None:
            parent.children.append(node)
        else:
            parent.children.insert(position, node)

        block = self._blocks.get(id(parent))
        if block is None or block.next_free >= block.end or node.children:
            # No free slot -- or the insert carries a whole subtree, whose
            # descendants would need number space *between* existing
            # blocks at every level below; only a relocation to the
            # numeric end of each level (the partial re-encode) provides
            # that consistently.
            anchor = self._safe_ancestor(parent)
            self._reencode_subtree(anchor)
            return node
        self._assign(node, block.next_free)
        block.next_free += 1
        return node

    def delete(self, node: Node) -> None:
        """Remove `node`'s subtree.  Its numbers are simply retired."""
        parent = node.parent
        if parent is None:
            raise ValueError("cannot delete the root")
        parent.children.remove(node)
        for n in node.iter_subtree():
            self._blocks.pop(id(n), None)
        node.parent = None

    def _safe_ancestor(self, start: Node) -> Node:
        """Lowest ancestor-or-self whose relocation preserves invariant (2).

        Moving node ``a`` to the numeric end of its level is safe when
        ``a``'s parent carries the largest number at *its* level (then no
        larger-numbered parent exists whose children would have to exceed
        ``a``'s new number).  The walk terminates at a child of the root,
        since the root is trivially the maximum of level 1.
        """
        a = start
        while a.parent is not None and a.parent.parent is not None:
            parent_num = a.parent.jdewey[-1]
            parent_level = len(a.parent.jdewey)
            level_max = self._level_next[parent_level - 1] - 1
            if parent_num == level_max:
                return a
            a = a.parent
        return a if a.parent is not None else a

    def _reencode_subtree(self, anchor: Node) -> None:
        """Relocate `anchor`'s subtree to the numeric end of each level."""
        self.reencode_count += 1
        if anchor.parent is not None:
            self._assign(anchor,
                         self._next_at_level(len(anchor.jdewey), 1))
        self._encode_descendants(anchor)

    def _encode_descendants(self, top: Node) -> None:
        frontier = [top]
        while frontier:
            next_frontier: List[Node] = []
            for parent in frontier:
                self._blocks.pop(id(parent), None)
                self._encode_children(parent)
                next_frontier.extend(parent.children)
            frontier = next_frontier

    # ------------------------------------------------------------------
    # validation (used heavily by tests)
    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Check both JDewey requirements; raise AssertionError on failure."""
        by_level: Dict[int, List[Node]] = {}
        for node in self.tree.root.iter_subtree():
            by_level.setdefault(len(node.jdewey), []).append(node)
        for level, nodes in by_level.items():
            numbers = [n.jdewey[-1] for n in nodes]
            if len(set(numbers)) != len(numbers):
                raise AssertionError(f"duplicate JDewey number at level {level}")
        for level, nodes in sorted(by_level.items()):
            ordered = sorted(nodes, key=lambda n: n.jdewey[-1])
            for v1, v2 in zip(ordered, ordered[1:]):
                if not v1.children or not v2.children:
                    continue
                max_c1 = max(c.jdewey[-1] for c in v1.children)
                min_c2 = min(c.jdewey[-1] for c in v2.children)
                if not max_c1 < min_c2:
                    raise AssertionError(
                        f"order violation between {v1!r} and {v2!r}")
        for node in self.tree.root.iter_subtree():
            if node.jdewey[:-1] != (node.parent.jdewey if node.parent
                                    else ()):
                raise AssertionError(f"stale sequence on {node!r}")


def lca_from_sequences(s1: Sequence[int], s2: Sequence[int]
                       ) -> Optional[Tuple[int, int]]:
    """LCA of two nodes from their JDewey sequences.

    Returns ``(level, number)`` -- the largest ``i`` with
    ``s1[i] == s2[i]`` identifies the LCA (paper section III-A) -- or
    None if the sequences share no component (different trees).
    """
    limit = min(len(s1), len(s2))
    level = 0
    for i in range(limit):
        if s1[i] == s2[i]:
            level = i + 1
        else:
            break
    if level == 0:
        return None
    return level, s1[level - 1]


def encode_tree(tree: XMLTree, gap: int = 0) -> JDeweyEncoder:
    """Assign JDewey numbers to every node of `tree`; returns the encoder."""
    return JDeweyEncoder(tree, gap=gap)
