"""The node table: the document tree as parallel arrays.

A JDewey number plus its level identifies a node (paper section III-A),
so everything the engines need to turn a join output back into nodes --
and everything the baselines need to turn an occurrence into a Dewey id
-- fits in one row per node, in document order::

    parent    row of the parent (-1 for the root)
    level     depth, root = 1
    number    the node's own JDewey number
    ordinal   1-based sibling ordinal (the last Dewey component)
    tag_id    index into the tag list
    text_off, text_len
              byte span of the node's escaped text inside document.xml

plus a per-level directory (the rows of each level sorted by JDewey
number) that answers ``(level, numbers) -> rows`` with one
``searchsorted``.  `NodeTable.from_tree` builds the table over a parsed
tree and hands out that tree's own `Node` objects; `NodeTable.from_buffer`
maps the table a database directory stores as ``dewey.bin`` and hands
out `TableNode` views, so opening a database parses no XML.

On-disk layout (little-endian, sections 8-aligned, pad bytes zero)::

    magic "NTB1" (4) | algorithm id (1) | pad (3) | n_nodes u64
      | depth u32 | n_tags u32 | document bytes u64
    per section, in the fixed order of `_SECTIONS`:
      offset u64 | length u64 | crc u32 | pad (4)
    crc u32 of everything above | pad (4)
    the sections

The header, the section directory and every section length are checked
when the buffer is wrapped; section checksums and the structural
invariants (parents precede children, levels chain, references in
range) are checked on first touch, so hostile bytes surface as
`DatabaseCorruptError` naming the file -- never an `IndexError`, a wrong
node or a walk that does not end.
"""

from __future__ import annotations

import struct
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..reliability.checksum import (ALGORITHM_IDS, ALGORITHM_NAMES,
                                    DEFAULT_ALGORITHM, checksum)
from ..reliability.errors import DatabaseCorruptError, DatabaseFormatError
from .parser import _decode_entities, _normalize_ws
from .tree import Node, XMLTree

MAGIC = b"NTB1"
_HEADER = struct.Struct("<4sB3xQIIQ")   # magic, algo, n_nodes, depth,
                                        # n_tags, document bytes
_SECTION = struct.Struct("<QQI4x")      # offset, length, crc
_HEADER_CRC = struct.Struct("<I4x")

#: (name, dtype) of every section, in file order; ``None`` marks the
#: tag list (UTF-8, newline-joined).
_SECTIONS = (("parent", np.int32), ("level", np.uint16),
             ("number", np.int64), ("ordinal", np.int32),
             ("tag_id", np.int32), ("text_off", np.int64),
             ("text_len", np.int32), ("tags", None),
             ("level_starts", np.int64), ("level_rows", np.int32))
_PREAMBLE = _HEADER.size + len(_SECTIONS) * _SECTION.size + _HEADER_CRC.size


def _align8(pos: int) -> int:
    return (pos + 7) & ~7


class TableNode:
    """One row of a mapped `NodeTable`, shaped like `Node`.

    Two slots; every attribute is computed from the table on access
    (plain ``int`` components, so results serialize to JSON as they
    are).  Attributes the table does not store (`attributes`, and so
    `to_xml`) come from the parsed document, which the table opens on
    first need.
    """

    __slots__ = ("_table", "row")

    def __init__(self, table: "NodeTable", row: int):
        self._table = table
        self.row = row

    @property
    def tag(self) -> str:
        table = self._table
        return table.tags[table._tag_id[self.row]]

    @property
    def text(self) -> str:
        return self._table._text(self.row)

    @property
    def level(self) -> int:
        return self._table._level[self.row]

    @property
    def dewey(self) -> Tuple[int, ...]:
        return self._table._path(self.row, self._table._ordinal)

    @property
    def jdewey(self) -> Tuple[int, ...]:
        return self._table._path(self.row, self._table._number)

    @property
    def parent(self) -> Optional["TableNode"]:
        parent = self._table._parent[self.row]
        return TableNode(self._table, parent) if parent >= 0 else None

    @property
    def children(self) -> List["TableNode"]:
        table = self._table
        return [TableNode(table, row)
                for row in table._child_rows(self.row).tolist()]

    @property
    def attributes(self):
        return self._table.tree.nodes[self.row].attributes

    def to_xml(self, indent: bool = False) -> str:
        return self._table.tree.nodes[self.row].to_xml(indent)

    iter_subtree = Node.iter_subtree
    subtree_text = Node.subtree_text
    is_ancestor_of = Node.is_ancestor_of
    path = Node.path

    def __eq__(self, other) -> bool:
        return (isinstance(other, TableNode) and other.row == self.row
                and other._table is self._table)

    def __hash__(self) -> int:
        return hash((id(self._table), self.row))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<TableNode {self.tag} "
                f"dewey={'.'.join(map(str, self.dewey))}>")


class NodeTable:
    """``(level, JDewey number) -> node`` and ``row -> Dewey id``."""

    def __init__(self):
        self.n_nodes = 0
        self.depth = 0
        self.tags: List[str] = []
        self.file: Optional[str] = None
        self._real_nodes: Optional[List[Node]] = None
        self._tree: Optional[XMLTree] = None
        self._open_tree: Optional[Callable[[], XMLTree]] = None
        self._open_document: Optional[Callable[[], object]] = None
        self._document = None
        self._pending = None     # (buffer, sections, algorithm, check_crc)
        self._doc_bytes = 0
        self._n_tags = 0
        self._metrics = None
        self._child_order: Optional[np.ndarray] = None
        self._child_parent: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def of(cls, source) -> "NodeTable":
        """`source` itself when it is a table, else the table of a tree."""
        return source if isinstance(source, cls) else cls.from_tree(source)

    @classmethod
    def from_tree(cls, tree: XMLTree) -> "NodeTable":
        """The table of a frozen, JDewey-encoded tree.  Lookups return
        the tree's own `Node` objects."""
        if not tree.frozen:
            raise ValueError("index a frozen tree")
        if not tree.root.jdewey:
            raise ValueError("assign JDewey numbers before indexing "
                             "(repro.xmltree.encode_tree)")
        nodes = tree.nodes
        n = len(nodes)
        table = cls()
        table.n_nodes = n
        table._tree = tree
        table._real_nodes = nodes
        parent = np.fromiter(
            (-1 if node.parent is None else node.parent.row
             for node in nodes), np.int32, n)
        level = np.fromiter((len(node.dewey) for node in nodes),
                            np.uint16, n)
        number = np.fromiter((node.jdewey[-1] for node in nodes),
                             np.int64, n)
        ordinal = np.fromiter((node.dewey[-1] for node in nodes),
                              np.int32, n)
        tag_ids: dict = {}
        tag_id = np.fromiter((tag_ids.setdefault(node.tag, len(tag_ids))
                              for node in nodes), np.int32, n)
        table.tags = list(tag_ids)
        table.depth = int(level.max())
        level_rows = np.lexsort((number, level)).astype(np.int32)
        level_starts = np.searchsorted(
            level[level_rows], np.arange(1, table.depth + 2)
        ).astype(np.int64)
        zeros = np.zeros(n, dtype=np.int64)
        table._install(parent, level, number, ordinal, tag_id, zeros,
                       zeros.astype(np.int32), level_starts, level_rows)
        return table

    @classmethod
    def from_buffer(cls, data, file: Optional[str] = None,
                    check_crc: bool = True, metrics=None,
                    open_tree: Optional[Callable[[], XMLTree]] = None,
                    open_document: Optional[Callable[[], object]] = None
                    ) -> "NodeTable":
        """Wrap the bytes `to_bytes` wrote (typically an mmap view).

        Checks the header and the section directory now; section
        checksums (when `check_crc`) and the structural invariants wait
        for the first lookup.  `open_tree` / `open_document` supply the
        parsed document and the raw ``document.xml`` buffer on first
        need (`TableNode.attributes` / `.to_xml`, and `.text`).
        """
        if bytes(data[:4]) != MAGIC:
            raise DatabaseFormatError(
                f"bad magic {bytes(data[:4])!r} (expected {MAGIC!r})"
                + (f" in {file}" if file else ""))
        if len(data) < _PREAMBLE:
            raise DatabaseCorruptError(
                "node table truncated inside the header", file=file)
        _, algo_id, n_nodes, depth, n_tags, doc_bytes = \
            _HEADER.unpack_from(data, 0)
        if algo_id not in ALGORITHM_NAMES:
            raise DatabaseFormatError(
                f"unknown checksum algorithm id {algo_id}"
                + (f" in {file}" if file else ""))
        algorithm = ALGORITHM_NAMES[algo_id]
        crc_at = _PREAMBLE - _HEADER_CRC.size
        (header_crc,) = _HEADER_CRC.unpack_from(data, crc_at)
        if checksum(data[:crc_at], algorithm) != header_crc:
            raise DatabaseCorruptError(
                "node table header fails its checksum", file=file)
        if not 1 <= depth <= min(n_nodes, 0xFFFF) or n_tags < 1 \
                or doc_bytes >= 2 ** 63:
            raise DatabaseCorruptError(
                f"node table header is impossible (nodes={n_nodes}, "
                f"depth={depth}, tags={n_tags}, document={doc_bytes})",
                file=file)
        sections = {}
        for i, (name, dtype) in enumerate(_SECTIONS):
            offset, length, crc = _SECTION.unpack_from(
                data, _HEADER.size + i * _SECTION.size)
            count = depth + 1 if name == "level_starts" else n_nodes
            if offset % 8 or offset + length > len(data) or (
                    dtype is not None
                    and length != count * np.dtype(dtype).itemsize):
                raise DatabaseCorruptError(
                    f"node table section {name!r} does not fit "
                    f"(offset={offset}, length={length})", file=file)
            sections[name] = (offset, length, crc)
        table = cls()
        table.n_nodes = int(n_nodes)
        table.depth = int(depth)
        table.file = file
        table._doc_bytes = int(doc_bytes)
        table._n_tags = int(n_tags)
        table._metrics = metrics
        table._open_tree = open_tree
        table._open_document = open_document
        table._pending = (data, sections, algorithm, check_crc)
        return table

    # ------------------------------------------------------------------
    # first touch
    # ------------------------------------------------------------------

    def _corrupt(self, message: str) -> DatabaseCorruptError:
        if self._metrics is not None:
            self._metrics.counter("repro_checksum_failures_total",
                                  {"file": self.file or "dewey"}).inc()
        return DatabaseCorruptError(message, file=self.file)

    def _load(self) -> None:
        """Verify, map and validate the sections of a wrapped buffer."""
        pending = self._pending
        if pending is None:      # another thread got here first
            return
        data, sections, algorithm, check_crc = pending
        arrays = {}
        for name, dtype in _SECTIONS:
            offset, length, crc = sections[name]
            raw = data[offset: offset + length]
            if check_crc and checksum(raw, algorithm) != crc:
                raise self._corrupt(
                    f"node table section {name!r} fails its checksum")
            arrays[name] = (bytes(raw) if dtype is None
                            else np.frombuffer(raw, dtype=dtype))
        try:
            tags = arrays.pop("tags").decode("utf-8").split("\n")
        except UnicodeDecodeError as exc:
            raise self._corrupt(f"node table tag list: {exc}") from exc
        if len(tags) != self._n_tags:
            raise self._corrupt(
                f"node table lists {len(tags)} tags, header says "
                f"{self._n_tags}")
        problem = _invalid(arrays, self.n_nodes, self.depth, len(tags),
                           self._doc_bytes)
        if problem:
            raise self._corrupt(f"node table is inconsistent: {problem}")
        self.tags = tags
        self._install(**arrays)
        self._pending = None

    def _install(self, parent, level, number, ordinal, tag_id, text_off,
                 text_len, level_starts, level_rows) -> None:
        self.level = level
        self.number = number
        self.parent = parent
        self.ordinal = ordinal
        self.tag_id = tag_id
        self.text_off = text_off
        self.text_len = text_len
        self.level_starts = level_starts
        self.level_rows = level_rows
        # Every level's JDewey numbers, sorted: what `rows_at` searches.
        self._sorted_numbers = number[level_rows]
        # Scalar reads go through memoryviews: indexing one yields a
        # plain int at a third of the cost of a numpy scalar.
        self._parent = memoryview(parent)
        self._level = memoryview(level)
        self._number = memoryview(number)
        self._ordinal = memoryview(ordinal)
        self._tag_id = memoryview(tag_id)
        self._starts = level_starts.tolist()

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self.n_nodes

    @property
    def tree(self) -> XMLTree:
        """The parsed document (opened on first use for a mapped table)."""
        if self._tree is None:
            self._tree = self._open_tree()
        return self._tree

    @property
    def root(self):
        return self._node(0)

    def _node(self, row: int):
        if self._pending is not None:
            self._load()
        if self._real_nodes is not None:
            return self._real_nodes[row]
        return TableNode(self, row)

    def _absent(self, level: int, number) -> Exception:
        """No such (level, number): a caller's `KeyError` over a tree,
        but a mapped table is only ever asked for what the columnar
        file beside it stores, so there the two files disagree."""
        if self.file is None:
            return KeyError((level, number))
        return self._corrupt(
            f"the index names a node (level={level}, number={number}) the "
            "node table does not hold; files are out of sync")

    def rows_at(self, level: int, numbers: np.ndarray) -> np.ndarray:
        """Rows of the nodes at `level` carrying `numbers` (any order).
        Raises `KeyError` when one is not in the document."""
        if self._pending is not None:
            self._load()
        if not 1 <= level <= self.depth:
            raise self._absent(level, numbers)
        lo, hi = self._starts[level - 1], self._starts[level]
        known = self._sorted_numbers[lo:hi]
        pos = np.minimum(known.searchsorted(numbers), len(known) - 1)
        if not np.array_equal(known[pos], numbers):
            raise self._absent(level, numbers)
        return self.level_rows[lo:hi][pos]

    def nodes(self, rows: np.ndarray) -> list:
        """One node per entry of `rows`."""
        if self._pending is not None:
            self._load()
        real = self._real_nodes
        if real is not None:
            return [real[row] for row in rows.tolist()]
        return [TableNode(self, row) for row in rows.tolist()]

    def levels_of(self, rows: np.ndarray) -> np.ndarray:
        if self._pending is not None:
            self._load()
        return self.level[rows]

    def tags_of(self, rows: np.ndarray) -> List[str]:
        if self._pending is not None:
            self._load()
        tags = self.tags
        return [tags[tag] for tag in self.tag_id[rows].tolist()]

    def node_at(self, level: int, number: int):
        """The node identified by (level, JDewey number)."""
        if self._pending is not None:
            self._load()
        if not 1 <= level <= self.depth:
            raise self._absent(level, number)
        lo, hi = self._starts[level - 1], self._starts[level]
        pos = lo + int(self._sorted_numbers[lo:hi].searchsorted(number))
        if pos >= hi or self._sorted_numbers[pos] != number:
            raise self._absent(level, number)
        return self._node(self.level_rows[pos])

    def node_by_dewey(self, dewey: Sequence[int]):
        """Look a node up by Dewey id.  Raises `KeyError` if absent."""
        if self._real_nodes is not None:
            return self._tree.node_by_dewey(dewey)
        if self._pending is not None:
            self._load()
        dewey = tuple(dewey)
        if dewey[:1] != (1,):
            raise KeyError(dewey)
        row = 0
        for component in dewey[1:]:
            kids = self._child_rows(row)
            if not 1 <= component <= len(kids):
                raise KeyError(dewey)
            row = int(kids[component - 1])
        return TableNode(self, row)

    def deweys(self, rows: np.ndarray) -> List[Tuple[int, ...]]:
        """Dewey ids of `rows`, in bulk: one upward sweep per level
        instead of one parent walk per row."""
        if self._pending is not None:
            self._load()
        if not len(rows):
            return []
        levels = self.level[rows].astype(np.int64)
        matrix = np.zeros((len(rows), int(levels.max())), dtype=np.int64)
        active = np.arange(len(rows))
        current = np.asarray(rows, dtype=np.int64)
        column = levels - 1
        while len(active):
            matrix[active, column] = self.ordinal[current]
            current = self.parent[current]
            keep = current >= 0
            active, current, column = (active[keep], current[keep],
                                       column[keep] - 1)
        return [tuple(row[:length]) for row, length
                in zip(matrix.tolist(), levels.tolist())]

    # -- what `TableNode` reads -------------------------------------------

    def _path(self, row: int, column) -> Tuple[int, ...]:
        """`column` (ordinals or numbers) along the root-to-`row` path."""
        parent = self._parent
        out = []
        while row >= 0:
            out.append(column[row])
            row = parent[row]
        out.reverse()
        return tuple(out)

    def _child_rows(self, row: int) -> np.ndarray:
        """Rows of `row`'s children in document order."""
        if self._child_order is None:
            # Stable, so siblings keep document order -- in which their
            # ordinals must count 1..k, or Dewey ids read upward from
            # the table would not resolve downward through it.
            order = np.argsort(self.parent, kind="stable")
            by_parent = self.parent[order]
            nth = np.arange(self.n_nodes) - by_parent.searchsorted(by_parent)
            if (self.ordinal[order] != nth + 1).any():
                raise self._corrupt("node table is inconsistent: sibling "
                                    "ordinals do not count up from 1")
            self._child_order, self._child_parent = order, by_parent
        lo, hi = self._child_parent.searchsorted([row, row + 1])
        return self._child_order[lo:hi]

    def _text(self, row: int) -> str:
        length = self.text_len[row]
        if not length:
            return ""
        if self._document is None:
            document = self._open_document()
            if len(document) != self._doc_bytes:
                raise DatabaseCorruptError(
                    f"document.xml has {len(document)} bytes, the node "
                    f"table was written against {self._doc_bytes}",
                    file="document.xml")
            self._document = document
        offset = int(self.text_off[row])
        try:
            raw = bytes(self._document[offset: offset + length]).decode(
                "utf-8")
            return _normalize_ws(_decode_entities(raw, offset))
        except ValueError as exc:   # UnicodeDecodeError, XMLParseError
            raise DatabaseCorruptError(
                f"document.xml text of node {row} does not decode: {exc}",
                file="document.xml") from exc

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------

    def to_bytes(self, text_off: Sequence[int], text_len: Sequence[int],
                 doc_bytes: int, algorithm: Optional[str] = None) -> bytes:
        """Serialize the table with the given text references (the
        spans `XMLTree.to_xml_bytes_with_text_spans` reports for the
        document written beside it)."""
        if self._pending is not None:
            self._load()
        algorithm = algorithm if algorithm is not None else DEFAULT_ALGORITHM
        if algorithm not in ALGORITHM_IDS:
            raise ValueError(f"unknown checksum algorithm {algorithm!r}; "
                             f"one of {sorted(ALGORITHM_IDS)}")
        if len(text_off) != self.n_nodes or len(text_len) != self.n_nodes:
            raise ValueError(
                f"{len(text_off)} text references for {self.n_nodes} nodes "
                "(the tree changed since freeze(); call refresh())")
        columns = {"text_off": text_off, "text_len": text_len,
                   "tags": "\n".join(self.tags).encode("utf-8")}
        blobs = []
        for name, dtype in _SECTIONS:
            value = columns.get(name, getattr(self, name, None))
            blobs.append(value if dtype is None else np.ascontiguousarray(
                value, dtype=dtype).tobytes())
        out = bytearray(_HEADER.pack(MAGIC, ALGORITHM_IDS[algorithm],
                                     self.n_nodes, self.depth,
                                     len(self.tags), doc_bytes))
        cursor = _PREAMBLE
        for blob in blobs:
            out.extend(_SECTION.pack(cursor, len(blob),
                                     checksum(blob, algorithm)))
            cursor = _align8(cursor + len(blob))
        out.extend(_HEADER_CRC.pack(checksum(bytes(out), algorithm)))
        for blob in blobs:
            out.extend(blob)
            out.extend(b"\x00" * (_align8(len(out)) - len(out)))
        return bytes(out)


def _invalid(arrays, n: int, depth: int, n_tags: int,
             doc_bytes: int) -> Optional[str]:
    """Why the mapped columns cannot be a tree (None when they can).

    One vectorized pass; after it every walk `NodeTable` makes is in
    range and ends at the root."""
    parent, level = arrays["parent"], arrays["level"]
    if parent[0] != -1 or level[0] != 1:
        return "row 0 is not a root"
    if n > 1:
        above = parent[1:]
        if above.min() < 0 or (above >= np.arange(1, n)).any():
            return "a parent does not precede its child"
        if (level[1:] != level[above] + 1).any():
            return "a level is not its parent's plus one"
    if int(level.max()) != depth:
        return "the deepest level is not the header's depth"
    if arrays["ordinal"].min() < 1:
        return "a sibling ordinal is below 1"
    tag_id = arrays["tag_id"]
    if tag_id.min() < 0 or tag_id.max() >= n_tags:
        return "a tag reference is out of range"
    text_off, text_len = arrays["text_off"], arrays["text_len"]
    if text_off.min() < 0 or text_len.min() < 0 \
            or (text_off > doc_bytes - text_len.astype(np.int64)).any():
        return "a text reference is outside the document"
    starts, rows = arrays["level_starts"], arrays["level_rows"]
    if starts[0] != 0 or starts[-1] != n or (np.diff(starts) < 1).any():
        return "the level directory does not partition the rows"
    if rows.min() < 0 or rows.max() >= n:
        return "a directory row is out of range"
    of_level = np.repeat(np.arange(1, depth + 1), np.diff(starts))
    if (level[rows] != of_level).any():
        return "a directory row is filed under the wrong level"
    rising = np.diff(arrays["number"][rows]) > 0
    rising[starts[1:-1] - 1] = True      # level boundaries may fall
    if not rising.all():
        return "a level's JDewey numbers are not strictly increasing"
    return None
