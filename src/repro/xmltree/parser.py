"""A small, dependency-free XML parser.

The paper parses DBLP/XMark with Xerces; parsing is a substrate, not a
measured component, so this module implements the subset of XML the
reproduction needs: elements, attributes, character data, comments,
CDATA, processing instructions, and the five predefined entities.
Namespaces are treated lexically (prefixes kept in tag names), DTDs are
skipped.

`parse_xml` returns a frozen `XMLTree`.
"""

from __future__ import annotations

import re
from typing import Dict, List, Tuple

from .tree import Node, XMLTree


class XMLParseError(ValueError):
    """Raised on malformed input, with a character offset."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at offset {pos})")
        self.pos = pos


_ENTITIES = {"lt": "<", "gt": ">", "amp": "&", "apos": "'", "quot": '"'}

#: A character outside XML 1.0's ``Char`` production.
_NOT_CHAR = re.compile(
    r"[^\t\n\r\x20-\uD7FF\uE000-\uFFFD\U00010000-\U0010FFFF]")


def _decode_entities(text: str, base_pos: int) -> str:
    if "&" not in text:
        return text
    out: List[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch != "&":
            out.append(ch)
            i += 1
            continue
        end = text.find(";", i + 1)
        if end == -1:
            raise XMLParseError("unterminated entity reference", base_pos + i)
        name = text[i + 1: end]
        if name.startswith("#"):
            try:
                if name[1:2] in ("x", "X"):
                    code = int(name[2:], 16)
                else:
                    code = int(name[1:])
                char = chr(code)
                if _NOT_CHAR.match(char):
                    raise ValueError(char)
                out.append(char)
            except (ValueError, OverflowError):
                raise XMLParseError(
                    f"invalid character reference &{name};", base_pos + i)
        elif name in _ENTITIES:
            out.append(_ENTITIES[name])
        else:
            raise XMLParseError(f"unknown entity &{name};", base_pos + i)
        i = end + 1
    return "".join(out)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.n = len(text)

    def fail(self, message: str) -> None:
        raise XMLParseError(message, self.pos)

    def skip_ws(self) -> None:
        while self.pos < self.n and self.text[self.pos] in " \t\r\n":
            self.pos += 1

    def skip_prolog(self) -> None:
        """Skip the XML declaration, DTD, comments and PIs before the root."""
        while True:
            self.skip_ws()
            if self.text.startswith("<?", self.pos):
                end = self.text.find("?>", self.pos)
                if end == -1:
                    self.fail("unterminated processing instruction")
                self.pos = end + 2
            elif self.text.startswith("<!--", self.pos):
                end = self.text.find("-->", self.pos)
                if end == -1:
                    self.fail("unterminated comment")
                self.pos = end + 3
            elif self.text.startswith("<!DOCTYPE", self.pos):
                self._skip_doctype()
            else:
                return

    def _skip_doctype(self) -> None:
        depth = 0
        while self.pos < self.n:
            ch = self.text[self.pos]
            if ch == "[":
                depth += 1
            elif ch == "]":
                depth -= 1
            elif ch == ">" and depth <= 0:
                self.pos += 1
                return
            self.pos += 1
        self.fail("unterminated DOCTYPE")

    def parse_name(self) -> str:
        start = self.pos
        while self.pos < self.n and self.text[self.pos] not in " \t\r\n/>=":
            self.pos += 1
        if self.pos == start:
            self.fail("expected a name")
        return self.text[start: self.pos]

    def parse_attributes(self) -> Dict[str, str]:
        attrs: Dict[str, str] = {}
        while True:
            self.skip_ws()
            if self.pos >= self.n or self.text[self.pos] in "/>":
                return attrs
            name = self.parse_name()
            self.skip_ws()
            if self.pos >= self.n or self.text[self.pos] != "=":
                self.fail(f"expected '=' after attribute {name!r}")
            self.pos += 1
            self.skip_ws()
            quote = self.text[self.pos] if self.pos < self.n else ""
            if quote not in "'\"":
                self.fail("expected a quoted attribute value")
            self.pos += 1
            end = self.text.find(quote, self.pos)
            if end == -1:
                self.fail("unterminated attribute value")
            attrs[name] = _decode_entities(self.text[self.pos: end], self.pos)
            self.pos = end + 1

    def parse_element(self) -> Node:
        if self.text[self.pos] != "<":
            self.fail("expected '<'")
        self.pos += 1
        tag = self.parse_name()
        attrs = self.parse_attributes()
        node = Node(tag, attributes=attrs)
        self.skip_ws()
        if self.text.startswith("/>", self.pos):
            self.pos += 2
            return node
        if self.pos >= self.n or self.text[self.pos] != ">":
            self.fail(f"malformed start tag <{tag}>")
        self.pos += 1
        text_parts: List[str] = []
        while True:
            if self.pos >= self.n:
                self.fail(f"unexpected end of input inside <{tag}>")
            if self.text.startswith("</", self.pos):
                self.pos += 2
                close = self.parse_name()
                if close != tag:
                    self.fail(f"mismatched close tag </{close}> for <{tag}>")
                self.skip_ws()
                if self.pos >= self.n or self.text[self.pos] != ">":
                    self.fail("malformed close tag")
                self.pos += 1
                node.text = _normalize_ws("".join(text_parts))
                return node
            if self.text.startswith("<!--", self.pos):
                end = self.text.find("-->", self.pos)
                if end == -1:
                    self.fail("unterminated comment")
                self.pos = end + 3
            elif self.text.startswith("<![CDATA[", self.pos):
                end = self.text.find("]]>", self.pos)
                if end == -1:
                    self.fail("unterminated CDATA section")
                text_parts.append(self.text[self.pos + 9: end])
                self.pos = end + 3
            elif self.text.startswith("<?", self.pos):
                end = self.text.find("?>", self.pos)
                if end == -1:
                    self.fail("unterminated processing instruction")
                self.pos = end + 2
            elif self.text[self.pos] == "<":
                node.add_child(self.parse_element())
            else:
                end = self.text.find("<", self.pos)
                if end == -1:
                    self.fail(f"unexpected end of input inside <{tag}>")
                text_parts.append(
                    _decode_entities(self.text[self.pos: end], self.pos))
                self.pos = end


def _normalize_ws(text: str) -> str:
    return " ".join(text.split())


def parse_xml(text: str) -> XMLTree:
    """Parse XML text into a frozen `XMLTree`.

    Raises `XMLParseError` on malformed input, trailing garbage, or a
    character XML 1.0 does not allow.
    """
    bad = _NOT_CHAR.search(text)
    if bad:
        raise XMLParseError(
            f"character U+{ord(bad.group()):04X} is not allowed in XML",
            bad.start())
    parser = _Parser(text)
    parser.skip_prolog()
    if parser.pos >= parser.n or parser.text[parser.pos] != "<":
        parser.fail("expected the root element")
    root = parser.parse_element()
    parser.skip_prolog()
    parser.skip_ws()
    if parser.pos != parser.n:
        parser.fail("trailing content after the root element")
    return XMLTree(root).freeze()


def parse_xml_file(path: str) -> XMLTree:
    """Parse an XML file (UTF-8) into a frozen `XMLTree`."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_xml(handle.read())
