"""Documents, and the `Node` tree for what needs objects.

An `XMLTree` is a document's bytes; a database builds its node table
(`repro.xmltree.nodetable`) from them and needs no `Node`.  The object
tree is parsed from the bytes on first access, for what only objects
do: JDewey insert/delete (`repro.xmltree.jdewey`), attributes and
`to_xml`, and the reference oracle.  A tree built from `Node`s goes the
other way: its bytes are its canonical serialization (`Node.to_xml`),
the form the generators write directly.  Only elements participate in the
structural encodings; text is attached to its owning element (mixed
content is concatenated).
"""

from __future__ import annotations

import re
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
        JDewey sequence, from a node table's numbers (`XMLTree.number`)
        or a `JDeweyEncoder`.  ``jdewey[i]`` is
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
        return "".join(_xml_parts(self, indent))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        dewey = ".".join(map(str, self.dewey)) if self.dewey else "?"
        return f"<Node {self.tag} dewey={dewey}>"


class XMLTree:
    """An XML document: its UTF-8 bytes, and the `Node` tree parsed from
    them when first asked for.

    ``XMLTree(document=data)`` wraps bytes (what the generators and
    `repro.xmltree.parser.parse_xml` return, the latter with its
    ``parsed`` columns); `root` and `nodes` parse them.  ``XMLTree(root)``
    wraps a tree built from `Node`s: call `freeze()` once it is final,
    and `document` is its serialization.  Freezing assigns Dewey ids and
    rows; JDewey numbers come from a node table (`number`) or a
    `repro.xmltree.jdewey.JDeweyEncoder`.
    """

    def __init__(self, root: Optional[Node] = None,
                 document: Optional[bytes] = None, parsed=None):
        if root is None and document is None:
            raise ValueError("an XMLTree needs a root node or a document")
        self._root = root
        self._document = document
        self._parsed = parsed    # the parse of `document`, until used
        self._numbers = None     # the nodes' JDewey numbers, by row
        self._nodes: List[Node] = []
        self._by_dewey: Dict[Dewey, Node] = {}

    @property
    def root(self) -> Node:
        if self._root is None:
            self._root = nodes_of(self.take_parsed())
            self._index()
            if self._numbers is not None:
                self.number(self._numbers)
        return self._root

    @property
    def nodes(self) -> List[Node]:
        """Every node in document order (``nodes[row].row == row``)."""
        self.root
        return self._nodes

    @property
    def document(self) -> bytes:
        """The document as UTF-8: the bytes given, or the serialization
        of the nodes (made once per `freeze`)."""
        if self._document is None:
            self._document = self._root.to_xml().encode("utf-8")
        return self._document

    def take_parsed(self):
        """The parse of `document`: the one handed in (given away once)
        or a fresh `repro.xmltree.parser.parse_document`."""
        parsed, self._parsed = self._parsed, None
        if parsed is None:
            from .parser import parse_document

            parsed = parse_document(self.document)
        return parsed

    def number(self, numbers) -> None:
        """Give the nodes a node table's JDewey numbers (by row): now if
        they are built, else as they are."""
        self._numbers = numbers
        if self._root is not None:
            for node, own in zip(self._nodes, numbers.tolist()):
                up = node.parent
                node.jdewey = (up.jdewey if up is not None else ()) + (own,)

    def freeze(self) -> "XMLTree":
        """Assign Dewey ids and document-order rows, and index the
        nodes; the bytes become the nodes' serialization again.
        Idempotent; a document whose nodes were never built has nothing
        to do."""
        if self._root is not None:
            self._index()
            self._document = self._parsed = self._numbers = None
        return self

    def _index(self) -> None:
        """Iterative, so that pathologically deep documents (a chain of
        thousands of elements) do not hit the recursion limit."""
        self._nodes = nodes = []
        self._by_dewey = by_dewey = {}
        stack = [(self._root, (1,))]
        while stack:
            node, dewey = stack.pop()
            node.dewey = dewey
            node.row = len(nodes)
            nodes.append(node)
            by_dewey[dewey] = node
            for i in range(len(node.children), 0, -1):
                stack.append((node.children[i - 1], dewey + (i,)))

    @property
    def frozen(self) -> bool:
        return self._root is None or bool(self._nodes)

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def depth(self) -> int:
        """Maximum level over all nodes (root = 1)."""
        return max(len(n.dewey) for n in self.nodes)

    def node_by_dewey(self, dewey: Sequence[int]) -> Node:
        """Look up a node by its Dewey id.  Raises KeyError if absent."""
        self.root
        return self._by_dewey[tuple(dewey)]

    def find_all(self, predicate: Callable[[Node], bool]) -> List[Node]:
        """All nodes satisfying `predicate`, in document order."""
        return [n for n in self.nodes if predicate(n)]

    def to_xml(self, indent: bool = False) -> str:
        """Serialize back to XML text (used by tests and examples)."""
        return self.root.to_xml(indent)


def nodes_of(parsed) -> Node:
    """The `Node` tree of a `repro.xmltree.parser.ParsedDocument`: its
    root, every node with its tag, text and attributes."""
    tags, attributes = parsed.tags, parsed.attributes
    nodes = [Node(tags[tag], text, attributes.get(row)) for row, (tag, text)
             in enumerate(zip(parsed.tag_id.tolist(), parsed.texts))]
    for node, parent in zip(nodes[1:], parsed.parent[1:].tolist()):
        nodes[parent].add_child(node)
    return nodes[0]


def _xml_parts(root: Node, indent: bool = False) -> Iterator[str]:
    """`root`'s subtree as XML text, part by part.

    Iterative, so a chain of thousands of elements does not hit the
    recursion limit."""
    nl = "\n" if indent else ""
    stack: List[Tuple[object, int]] = [(root, 0)]
    while stack:
        node, depth = stack.pop()
        if depth < 0:                 # a pending closing tag
            yield node
            continue
        pad = "  " * depth if indent else ""
        head = pad + "<" + node.tag + "".join(
            f' {k}="{_escape_attr(v)}"' for k, v in node.attributes.items())
        text = _escape_text(node.text) if node.text else ""
        if node.children:
            head += ">"
            stack.append((pad + "</" + node.tag + ">" + nl, -1))
            stack.extend((child, depth + 1)
                         for child in reversed(node.children))
        elif text:
            head += ">"
            stack.append(("</" + node.tag + ">" + nl, -1))
        else:
            head += "/>" + nl
        yield head
        if text:
            yield text
        if node.children and nl:
            yield nl


#: A character outside XML 1.0's ``Char`` production.
_NOT_CHAR = re.compile(
    r"[^\t\n\r\x20-\uD7FF\uE000-\uFFFD\U00010000-\U0010FFFF]")


def _escape_text(text: str) -> str:
    """`text` as character data.  A character XML cannot carry (a
    control character, say) becomes U+FFFD, so the serialization of
    any tree parses."""
    return _NOT_CHAR.sub("\ufffd", text.replace("&", "&amp;")
                         .replace("<", "&lt;").replace(">", "&gt;"))


def _escape_attr(text: str) -> str:
    """`text` as an attribute value; whitespace other than a space is
    a reference, which attribute-value normalization keeps."""
    return (_escape_text(text).replace('"', "&quot;").replace("\t", "&#9;")
            .replace("\n", "&#10;").replace("\r", "&#13;"))


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
