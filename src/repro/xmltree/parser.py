"""Parsing XML bytes into the node table's columns.

The paper parses DBLP/XMark with Xerces; here one pass of the standard
library's expat parser (`parse_document`) turns a document's bytes into
the columns of `repro.xmltree.nodetable.NodeTable` plus each element's
text and attributes.  No `Node` is built, and the columns are typed
arrays while the pass runs, not lists of Python ints.  Comments and processing
instructions are skipped and namespaces are lexical.  A DTD is skipped
but an entity declaration is refused, so nothing is ever expanded or
fetched, and so are undefined entities and characters outside XML
1.0's ``Char``, always as an `XMLParseError` with a character offset.

A text span lets a reader fetch one node's text from the document
without parsing it.  A document where some node's text is not one
stretch of character data (content on both sides of a child, a CDATA
section) is parsed from its canonical serialization instead.
"""

from __future__ import annotations

import xml.parsers.expat as expat
from array import array
from typing import Dict, List, Optional

import numpy as np

from .tree import _NOT_CHAR, XMLTree, nodes_of


class XMLParseError(ValueError):
    """Raised on malformed input, with a character offset."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at offset {pos})")
        self.pos = pos


class ParsedDocument:
    """What `parse_document` reads: ``data``, the document the spans
    index (the input, or its canonical serialization), and per element
    in document order ``parent`` (-1 for the root), ``level`` (root =
    1), ``ordinal`` (among siblings, from 1), ``tag_id`` (into
    ``tags``), ``text_off`` / ``text_len`` (``0, 0`` for no text) and
    ``texts`` (normalized); ``attributes`` maps rows to theirs."""

    __slots__ = ("data", "parent", "level", "ordinal", "tag_id", "tags",
                 "text_off", "text_len", "texts", "attributes")

    def __len__(self) -> int:
        return len(self.parent)


_CHAR_REF_ERRORS = (expat.errors.codes[expat.errors.XML_ERROR_BAD_CHAR_REF],
                    expat.errors.codes[expat.errors.XML_ERROR_INVALID_TOKEN])


def _char_offset(data: bytes, at: int) -> int:
    return len(data[:max(at, 0)].decode("utf-8", "replace"))


def _expat_error(data: bytes, exc: expat.ExpatError,
                 at: int) -> XMLParseError:
    """`exc` at byte `at`, said in this module's terms."""
    message = expat.ErrorString(exc.code)
    amp = data.rfind(b"&", 0, at + 1)
    if exc.code in _CHAR_REF_ERRORS and data[amp + 1: amp + 2] == b"#" \
            and b";" not in data[amp: at] and b"<" not in data[amp: at]:
        end = data.find(b";", amp)
        ref = data[amp: end + 1 if end >= 0 else at].decode("utf-8",
                                                            "replace")
        message, at = f"invalid character reference {ref}", amp
    return XMLParseError(message, _char_offset(data, at))


def _read(data: bytes) -> ParsedDocument:
    """One expat pass over `data`; ``text_off`` is None when some
    element's text has no single span.  The handlers do as little per
    element as they can: they append to typed arrays (no Python int is
    kept per element), and ordinals, normalized texts and spans are
    made after the pass."""
    parser = expat.ParserCreate(encoding="UTF-8")
    parent, level, tag_id = array("i"), array("i"), array("i")
    tag_ids: Dict[str, int] = {}
    attributes: Dict[int, Dict[str, str]] = {}
    raw: Dict[int, str] = {}     # row -> its text from its first content on
    # each stretch with content: its row, and where it starts and ends
    span_row, span_from, span_to = array("i"), array("q"), array("q")
    stack: List[int] = [-1]      # the open elements' rows, under a sentinel
    pending: Optional[str] = None    # the stretch of text being read
    stretch_at = 0               # ... and where it starts
    in_cdata = False
    spanned = True               # every text so far has one span

    def close_stretch() -> None:
        nonlocal spanned, pending
        text, pending = pending, None
        row = stack[-1]
        if text.isspace():
            if row in raw:
                raw[row] += text
            return
        if row in raw:
            raw[row] += text
            spanned = False
        else:
            raw[row] = text
        if in_cdata:
            spanned = False
        span_row.append(row)
        span_from.append(stretch_at)
        span_to.append(parser.CurrentByteIndex)

    def start(tag, attrs):
        if pending is not None:
            close_stretch()
        row = len(parent)
        if attrs:
            attributes[row] = attrs
        parent.append(stack[-1])
        level.append(len(stack))
        tag_id.append(tag_ids.setdefault(tag, len(tag_ids)))
        stack.append(row)

    def end(_tag):
        if pending is not None:
            close_stretch()
        stack.pop()

    def chars(text):
        nonlocal pending, stretch_at
        if pending is None:
            pending = text
            stretch_at = parser.CurrentByteIndex
        else:
            pending += text

    def flush(*_):
        if pending is not None:
            close_stretch()

    def cdata(opening: bool):
        nonlocal in_cdata
        flush()
        in_cdata = opening

    def refuse(message: str, at: int):
        raise XMLParseError(message, _char_offset(data, at))

    parser.StartElementHandler = start
    parser.EndElementHandler = end
    parser.CharacterDataHandler = chars
    parser.StartCdataSectionHandler = lambda: cdata(True)
    parser.EndCdataSectionHandler = lambda: cdata(False)
    parser.CommentHandler = flush
    parser.ProcessingInstructionHandler = flush
    parser.EntityDeclHandler = lambda name, is_parameter, *_: refuse(
        f"entity declarations are not supported (<!ENTITY "
        f"{'% ' if is_parameter else ''}{name} ...>)",
        data.rfind(b"<!ENTITY", 0, parser.CurrentByteIndex + 1))
    parser.SkippedEntityHandler = lambda name, _is_parameter: refuse(
        f"undefined entity &{name};", parser.CurrentByteIndex)
    try:
        parser.Parse(data, True)
    except expat.ExpatError as exc:
        raise _expat_error(data, exc, parser.ErrorByteIndex) from None
    del parser          # the handlers' cycle through it, which held the lists
    n = len(parent)
    parsed = ParsedDocument()
    parsed.data, parsed.tags = data, list(tag_ids)
    parsed.attributes = attributes
    parsed.texts = texts = [""] * n
    for row, text in raw.items():
        # Every whitespace character but " " is unprintable, so a
        # printable text without doubled or outer spaces is normalized.
        if text.isprintable() and "  " not in text \
                and text[0] != " " != text[-1]:
            texts[row] = text
        else:
            texts[row] = " ".join(text.split())
    parsed.parent = np.frombuffer(parent, dtype=np.int32)
    parsed.level = np.frombuffer(level, dtype=np.int32).astype(np.uint16)
    parsed.tag_id = np.frombuffer(tag_id, dtype=np.int32)
    # A row's ordinal: 1 + its earlier siblings (rows are in document
    # order, so a stable sort by parent keeps siblings in theirs).
    by_parent = np.argsort(parsed.parent, kind="stable")
    grouped = parsed.parent[by_parent]
    parsed.ordinal = np.empty(n, dtype=np.int32)
    parsed.ordinal[by_parent] = np.arange(1, n + 1) \
        - grouped.searchsorted(grouped)
    # An element's last stretch with content wins (a second one leaves
    # the document unspanned).
    rows = np.frombuffer(span_row, dtype=np.int32)
    starts = np.frombuffer(span_from, dtype=np.int64)
    text_off = np.zeros(n, dtype=np.int64)
    text_off[rows] = starts
    parsed.text_len = np.zeros(n, dtype=np.int32)
    parsed.text_len[rows] = np.frombuffer(span_to, dtype=np.int64) - starts
    parsed.text_off = text_off if spanned else None
    return parsed


def span_text(raw: bytes) -> str:
    """The text a node table's span of a document holds (its raw
    character data), decoded and normalized as the parse did."""
    parsed = _read(b"<t>" + raw + b"</t>")
    if len(parsed) != 1:
        raise XMLParseError("a text span holds markup", 0)
    return parsed.texts[0]


def parse_document(data: bytes) -> ParsedDocument:
    """Parse a UTF-8 document into node-table columns (one expat pass;
    a second over the canonical serialization when some text has no
    single span).  Raises `XMLParseError` on malformed input."""
    parsed = _read(data)
    if parsed.text_off is None:
        parsed = _read(nodes_of(parsed).to_xml().encode("utf-8"))
    return parsed


def parse_xml(text: str) -> XMLTree:
    """Parse XML text into an `XMLTree` (its `Node`s are built when
    first asked for).

    Raises `XMLParseError` on malformed input, trailing content, a
    character XML 1.0 does not allow, or an entity it does not define.
    """
    bad = _NOT_CHAR.search(text)
    if bad:
        raise XMLParseError(
            f"character U+{ord(bad.group()):04X} is not allowed in XML",
            bad.start())
    parsed = parse_document(text.encode("utf-8"))
    return XMLTree(document=parsed.data, parsed=parsed)


def parse_xml_file(path: str) -> XMLTree:
    """Parse an XML file (UTF-8) into an `XMLTree`."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_xml(handle.read())
