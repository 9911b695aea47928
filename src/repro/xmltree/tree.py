"""In-memory XML tree model.

The tree is the substrate every other subsystem builds on: nodes carry a
tag, optional text, and children.  After a tree is frozen (`XMLTree.freeze`)
every node additionally carries

* a *Dewey id* -- the classic path-of-sibling-ordinals identifier used by
  the stack-based and index-based baselines, and
* a *JDewey sequence* -- the per-level numbering introduced by the paper
  (see `repro.xmltree.jdewey`).

Only elements participate in the structural encodings; text is attached to
its owning element (mixed content is concatenated).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

Dewey = Tuple[int, ...]
JDeweySeq = Tuple[int, ...]


class Node:
    """One element of an XML tree.

    Attributes
    ----------
    tag:
        Element name.
    text:
        Concatenated character data directly inside this element (not
        including descendants' text).
    children:
        Child elements in document order.
    dewey:
        Dewey id, assigned by `XMLTree.freeze`.  The root is ``(1,)``.
    jdewey:
        JDewey sequence, assigned by a `JDeweyEncoder`.  ``jdewey[i]`` is
        the JDewey number of this node's ancestor at depth ``i + 1`` (the
        last entry is the node's own number).
    row:
        Document-order ordinal, assigned by `XMLTree.freeze` (``-1``
        before): the node's index in `XMLTree.nodes` and its row in the
        node table (`repro.xmltree.nodetable`).  Sorting by it is
        sorting in document order.
    """

    __slots__ = ("tag", "text", "children", "parent", "dewey", "jdewey",
                 "attributes", "row")

    def __init__(self, tag: str, text: str = "",
                 attributes: Optional[Dict[str, str]] = None):
        self.tag = tag
        self.text = text
        self.attributes: Dict[str, str] = attributes or {}
        self.children: List["Node"] = []
        self.parent: Optional["Node"] = None
        self.dewey: Dewey = ()
        self.jdewey: JDeweySeq = ()
        self.row = -1

    def add_child(self, child: "Node") -> "Node":
        """Append `child` and return it (convenient for chaining)."""
        child.parent = self
        self.children.append(child)
        return child

    @property
    def level(self) -> int:
        """Depth of the node; the root is at level 1."""
        return len(self.dewey)

    def iter_subtree(self) -> Iterator["Node"]:
        """Yield this node and all descendants in document order."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def subtree_text(self) -> str:
        """All character data in the subtree, in document order."""
        return " ".join(n.text for n in self.iter_subtree() if n.text)

    def is_ancestor_of(self, other: "Node") -> bool:
        """True iff `self` is a proper ancestor of `other` (Dewey test)."""
        d1, d2 = self.dewey, other.dewey
        return len(d1) < len(d2) and d2[: len(d1)] == d1

    def path(self) -> List["Node"]:
        """Nodes from the root down to this node, inclusive."""
        nodes: List[Node] = []
        cur: Optional[Node] = self
        while cur is not None:
            nodes.append(cur)
            cur = cur.parent
        nodes.reverse()
        return nodes

    def to_xml(self, indent: bool = False) -> str:
        """Serialize this node's subtree (the result fragment a keyword
        search returns to the user)."""
        parts: List[str] = []
        _serialize_node(self, parts, 0, indent)
        return "".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        dewey = ".".join(map(str, self.dewey)) if self.dewey else "?"
        return f"<Node {self.tag} dewey={dewey}>"


class XMLTree:
    """A frozen XML document.

    Construct via `XMLTree(root)` and call `freeze()` once the structure is
    final; freezing assigns Dewey ids and builds the document-order node
    list.  JDewey numbers are assigned separately by
    `repro.xmltree.jdewey.JDeweyEncoder` because the encoder owns gap
    policy and re-encoding state.
    """

    def __init__(self, root: Node):
        self.root = root
        self.nodes: List[Node] = []
        self._by_dewey: Dict[Dewey, Node] = {}
        self._frozen = False

    def freeze(self) -> "XMLTree":
        """Assign Dewey ids and document-order rows, and index the
        nodes.  Idempotent.

        Iterative so that pathologically deep documents (a chain of
        thousands of elements) do not hit the recursion limit.
        """
        self.nodes = []
        self._by_dewey = {}
        stack = [(self.root, (1,))]
        while stack:
            node, dewey = stack.pop()
            node.dewey = dewey
            node.row = len(self.nodes)
            self.nodes.append(node)
            self._by_dewey[dewey] = node
            for i in range(len(node.children), 0, -1):
                stack.append((node.children[i - 1], dewey + (i,)))
        self._frozen = True
        return self

    @property
    def frozen(self) -> bool:
        return self._frozen

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def depth(self) -> int:
        """Maximum level over all nodes (root = 1)."""
        return max(len(n.dewey) for n in self.nodes)

    def node_by_dewey(self, dewey: Sequence[int]) -> Node:
        """Look up a node by its Dewey id.  Raises KeyError if absent."""
        return self._by_dewey[tuple(dewey)]

    def iter_document_order(self) -> Iterator[Node]:
        return iter(self.nodes)

    def find_all(self, predicate: Callable[[Node], bool]) -> List[Node]:
        """All nodes satisfying `predicate`, in document order."""
        return [n for n in self.nodes if predicate(n)]

    def to_xml(self, indent: bool = False) -> str:
        """Serialize back to XML text (used by tests and examples)."""
        return self.root.to_xml(indent)

    def to_xml_bytes_with_text_spans(self) -> Tuple[bytes, List[int],
                                                    List[int]]:
        """`to_xml()` as UTF-8, plus where each node's text sits in it.

        Returns ``(document, offsets, lengths)``: per node in document
        order, the byte span of its escaped text inside `document`
        (``0, 0`` for none) -- the text references the node table
        stores, so a reader can fetch one node's text from the document
        file without parsing it.
        """
        parts: List[str] = []
        slots: List[int] = []
        _serialize_node(self.root, parts, 0, False, slots)
        encoded = [part.encode("utf-8") for part in parts]
        starts = [0]
        for blob in encoded:
            starts.append(starts[-1] + len(blob))
        offsets = [starts[slot] if slot >= 0 else 0 for slot in slots]
        lengths = [len(encoded[slot]) if slot >= 0 else 0 for slot in slots]
        return b"".join(encoded), offsets, lengths


def _serialize_node(node: Node, parts: List[str], depth: int,
                    indent: bool,
                    text_slots: Optional[List[int]] = None) -> None:
    """Append `node`'s subtree to `parts`.  With `text_slots`, also
    record per node, in document order, the index in `parts` of its
    escaped text (``-1`` for none)."""
    pad = "  " * depth if indent else ""
    nl = "\n" if indent else ""
    attrs = "".join(
        f' {k}="{_escape_attr(v)}"' for k, v in node.attributes.items())
    if text_slots is not None:
        text_slots.append(len(parts) + 1 if node.text else -1)
    if not node.children and not node.text:
        parts.append(f"{pad}<{node.tag}{attrs}/>{nl}")
        return
    parts.append(f"{pad}<{node.tag}{attrs}>")
    if node.text:
        parts.append(_escape_text(node.text))
    if node.children:
        parts.append(nl)
        for child in node.children:
            _serialize_node(child, parts, depth + 1, indent, text_slots)
        parts.append(pad)
    parts.append(f"</{node.tag}>{nl}")


def _escape_text(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))


def _escape_attr(text: str) -> str:
    return _escape_text(text).replace('"', "&quot;")


def build_tree(spec) -> XMLTree:
    """Build a frozen tree from a nested tuple spec.

    The spec format is ``(tag, text, [children...])`` where ``text`` and
    the child list are optional::

        build_tree(("bib", [("paper", "XML data", [])]))

    Handy for tests and documentation examples.
    """
    root = _node_from_spec(spec)
    return XMLTree(root).freeze()


def _node_from_spec(spec) -> Node:
    if isinstance(spec, str):
        return Node(spec)
    tag = spec[0]
    text = ""
    children: Sequence = ()
    for part in spec[1:]:
        if isinstance(part, str):
            text = part
        else:
            children = part
    node = Node(tag, text)
    for child_spec in children:
        node.add_child(_node_from_spec(child_spec))
    return node
