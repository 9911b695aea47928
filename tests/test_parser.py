"""Tests for the XML parser (`repro.xmltree.parser`)."""

import pytest

from repro.xmltree.parser import XMLParseError, parse_xml, parse_xml_file


class TestBasicParsing:
    def test_single_element(self):
        tree = parse_xml("<a/>")
        assert tree.root.tag == "a"
        assert len(tree) == 1

    def test_element_with_text(self):
        tree = parse_xml("<a>hello world</a>")
        assert tree.root.text == "hello world"

    def test_nested_elements(self):
        tree = parse_xml("<a><b><c/></b></a>")
        assert tree.node_by_dewey((1, 1, 1)).tag == "c"

    def test_siblings_in_document_order(self):
        tree = parse_xml("<a><x/><y/><z/></a>")
        assert [c.tag for c in tree.root.children] == ["x", "y", "z"]

    def test_mixed_content_concatenated(self):
        tree = parse_xml("<a>one <b/> two</a>")
        assert tree.root.text == "one two"

    def test_whitespace_normalized(self):
        tree = parse_xml("<a>  spaced \n  out  </a>")
        assert tree.root.text == "spaced out"

    def test_result_is_frozen_with_dewey(self):
        tree = parse_xml("<a><b/></a>")
        assert tree.frozen
        assert tree.root.children[0].dewey == (1, 1)


class TestAttributes:
    def test_double_quoted(self):
        tree = parse_xml('<a id="42"/>')
        assert tree.root.attributes["id"] == "42"

    def test_single_quoted(self):
        tree = parse_xml("<a id='42'/>")
        assert tree.root.attributes["id"] == "42"

    def test_multiple_attributes(self):
        tree = parse_xml('<a x="1" y="2" z="3"/>')
        assert tree.root.attributes == {"x": "1", "y": "2", "z": "3"}

    def test_attribute_entities_decoded(self):
        tree = parse_xml('<a title="a &amp; b"/>')
        assert tree.root.attributes["title"] == "a & b"

    def test_attributes_on_open_close_element(self):
        tree = parse_xml('<a k="v">text</a>')
        assert tree.root.attributes["k"] == "v"
        assert tree.root.text == "text"


class TestEntitiesAndSections:
    def test_predefined_entities(self):
        tree = parse_xml("<a>&lt;tag&gt; &amp; &quot;q&quot; &apos;s&apos;</a>")
        assert tree.root.text == "<tag> & \"q\" 's'"

    def test_decimal_character_reference(self):
        assert parse_xml("<a>&#65;</a>").root.text == "A"

    def test_hex_character_reference(self):
        assert parse_xml("<a>&#x41;</a>").root.text == "A"

    def test_unknown_entity_raises(self):
        with pytest.raises(XMLParseError):
            parse_xml("<a>&nope;</a>")

    @pytest.mark.parametrize("bad", [
        "<a>&#;</a>", "<a>&#xZZ;</a>", "<a>&#99999999999999;</a>",
        "<a>&#x110000;</a>",
    ])
    def test_invalid_character_reference_raises(self, bad):
        with pytest.raises(XMLParseError):
            parse_xml(bad)

    @pytest.mark.parametrize("ref", [
        "&#xD800;", "&#xDFFF;", "&#0;", "&#1;", "&#x1F;", "&#xFFFE;",
        "&#xFFFF;", "&#-65;",
    ])
    def test_reference_outside_xml_chars_raises_at_its_offset(self, ref):
        with pytest.raises(XMLParseError, match="invalid character "
                           "reference") as exc:
            parse_xml(f"<a><b>x{ref}y</b></a>")
        assert exc.value.pos == 7
        with pytest.raises(XMLParseError):
            parse_xml(f'<a b="{ref}"/>')

    @pytest.mark.parametrize("ref, char", [
        ("&#9;", "\t"), ("&#xA;", "\n"), ("&#x20;", " "),
        ("&#xD7FF;", "\ud7ff"), ("&#xE000;", "\ue000"),
        ("&#xFFFD;", "\ufffd"), ("&#x10000;", "\U00010000"),
        ("&#x10FFFF;", "\U0010ffff"),
    ])
    def test_reference_at_the_edges_of_xml_chars_decodes(self, ref, char):
        assert parse_xml(f'<a b="{ref}"/>').root.attributes["b"] == char

    @pytest.mark.parametrize("char", ["\x00", "\x01", "\x1f", "\ud800",
                                      "\udfff", "\ufffe", "\uffff"])
    def test_raw_character_outside_xml_chars_raises_at_its_offset(self,
                                                                  char):
        for doc, pos in ((f"<a>x{char}</a>", 4), (f'<a b="{char}"/>', 6),
                         (f"<a{char}/>", 2), (f"<a/>{char}", 4)):
            with pytest.raises(XMLParseError, match="not allowed in "
                               "XML") as exc:
                parse_xml(doc)
            assert exc.value.pos == pos

    def test_cdata_taken_verbatim(self):
        tree = parse_xml("<a><![CDATA[x < y & z]]></a>")
        assert tree.root.text == "x < y & z"

    def test_comments_skipped(self):
        tree = parse_xml("<a><!-- note --><b/><!-- more --></a>")
        assert [c.tag for c in tree.root.children] == ["b"]

    def test_processing_instruction_inside_element(self):
        tree = parse_xml("<a><?php echo ?><b/></a>")
        assert [c.tag for c in tree.root.children] == ["b"]


class TestProlog:
    def test_xml_declaration(self):
        tree = parse_xml('<?xml version="1.0" encoding="UTF-8"?><a/>')
        assert tree.root.tag == "a"

    def test_doctype_skipped(self):
        tree = parse_xml('<!DOCTYPE a SYSTEM "a.dtd"><a/>')
        assert tree.root.tag == "a"

    def test_doctype_with_internal_subset(self):
        tree = parse_xml("<!DOCTYPE a [<!ELEMENT a (#PCDATA)>]><a/>")
        assert tree.root.tag == "a"

    def test_leading_comment(self):
        tree = parse_xml("<!-- header --><a/>")
        assert tree.root.tag == "a"

    def test_trailing_comment_allowed(self):
        tree = parse_xml("<a/><!-- trailer -->")
        assert tree.root.tag == "a"


class TestErrors:
    @pytest.mark.parametrize("bad", [
        "",
        "just text",
        "<a>",
        "<a></b>",
        "<a><b></a></b>",
        "<a/><b/>",
        "<a attr></a>",
        '<a attr="unterminated></a>',
        "<a>&unterminated",
        "<a><!-- unterminated</a>",
        "<a><![CDATA[unterminated</a>",
    ])
    def test_malformed_raises(self, bad):
        with pytest.raises(XMLParseError):
            parse_xml(bad)

    def test_error_carries_offset(self):
        with pytest.raises(XMLParseError) as exc:
            parse_xml("<a></b>")
        assert exc.value.pos >= 0
        assert "offset" in str(exc.value)


class TestHostileInput:
    """Input a parser must refuse, typed and at a character offset --
    and nothing declared in a DTD is ever expanded or fetched."""

    LAUGHS = ('<?xml version="1.0"?><!DOCTYPE lolz [<!ENTITY lol "lol">'
              '<!ENTITY lol1 "&lol;&lol;&lol;&lol;&lol;&lol;&lol;&lol;">'
              '<!ENTITY lol2 "&lol1;&lol1;&lol1;&lol1;&lol1;&lol1;">]>'
              '<lolz>&lol2;</lolz>')

    @pytest.mark.parametrize("doc, pos, message", [
        # an internal-DTD entity, declared and used in the body
        ('<!DOCTYPE a [<!ENTITY e "expanded">]><a>&e;</a>', 13,
         "entity declarations"),
        # the nested "billion laughs": refused at its first declaration
        (LAUGHS, 37, "entity declarations"),
        ('<!DOCTYPE a [<!ENTITY % p "x">]><a/>', 13, "entity declarations"),
        # an external entity, which must never be resolved
        ('<!DOCTYPE a [<!ENTITY ext SYSTEM "file:///etc/passwd">]>'
         '<a>&ext;</a>', 13, "entity declarations"),
        # undefined entities, with and without an external DTD subset
        ("<a>x &nope; y</a>", 5, "undefined entity"),
        ('<!DOCTYPE a SYSTEM "a.dtd"><a>&nope;</a>', 30,
         "undefined entity &nope;"),
        ("<a><b>text</b><c>more", 21, "no element found"),
        ("<a><b>text</c></a>", 12, "mismatched tag"),
        ("<a>x</a><b/>", 8, "junk after document element"),
        ("<a>x</a>tail", 8, "junk after document element"),
        ("<a>\u00e9t\u00e9</b>", 8, "mismatched tag"),
    ])
    def test_refused_at_its_offset(self, doc, pos, message):
        with pytest.raises(XMLParseError, match=message) as exc:
            parse_xml(doc)
        assert exc.value.pos == pos
        assert f"(at offset {pos})" in str(exc.value)

    def test_nothing_external_is_opened(self, monkeypatch, tmp_path):
        import builtins

        opened = []
        real_open = builtins.open
        monkeypatch.setattr(builtins, "open", lambda *a, **k: (
            opened.append(a[0]), real_open(*a, **k))[1])
        secret = tmp_path / "secret.txt"
        secret.write_text("leaked", encoding="utf-8")
        with pytest.raises(XMLParseError):
            parse_xml(f'<!DOCTYPE a [<!ENTITY s SYSTEM "{secret}">]>'
                      "<a>&s;</a>")
        with pytest.raises(XMLParseError):
            parse_xml(f'<!DOCTYPE a SYSTEM "{secret}"><a>&s;</a>')
        assert opened == []


class TestFile:
    def test_parse_xml_file(self, tmp_path):
        path = tmp_path / "doc.xml"
        path.write_text("<r><c>hi</c></r>", encoding="utf-8")
        tree = parse_xml_file(str(path))
        assert tree.node_by_dewey((1, 1)).text == "hi"


class TestRealisticDocument:
    DOC = """<?xml version="1.0"?>
    <!DOCTYPE dblp>
    <dblp>
      <conference><name>ICDE</name>
        <year>2010
          <paper id="p1"><title>Top-K keyword search &amp; XML</title>
            <authors><author>Chen</author><author>Papakonstantinou</author></authors>
          </paper>
        </year>
      </conference>
    </dblp>
    """

    def test_structure(self):
        tree = parse_xml(self.DOC)
        papers = tree.find_all(lambda n: n.tag == "paper")
        assert len(papers) == 1
        assert papers[0].attributes["id"] == "p1"

    def test_title_entity(self):
        tree = parse_xml(self.DOC)
        title = tree.find_all(lambda n: n.tag == "title")[0]
        assert title.text == "Top-K keyword search & XML"

    def test_mixed_year_text(self):
        tree = parse_xml(self.DOC)
        year = tree.find_all(lambda n: n.tag == "year")[0]
        assert year.text == "2010"
