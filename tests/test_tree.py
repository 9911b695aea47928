"""Tests for the XML tree model (`repro.xmltree.tree`)."""

import pytest

from repro.xmltree.tree import Node, XMLTree, build_tree


@pytest.fixture
def simple_tree():
    root = Node("bib")
    book = root.add_child(Node("book"))
    book.add_child(Node("title", "XML basics"))
    chapter = book.add_child(Node("chapter"))
    chapter.add_child(Node("section", "intro"))
    chapter.add_child(Node("section", "details"))
    root.add_child(Node("article", "keyword search"))
    return XMLTree(root).freeze()


class TestNode:
    def test_add_child_sets_parent(self):
        parent = Node("a")
        child = parent.add_child(Node("b"))
        assert child.parent is parent
        assert parent.children == [child]

    def test_add_child_returns_child_for_chaining(self):
        parent = Node("a")
        grandchild = parent.add_child(Node("b")).add_child(Node("c"))
        assert grandchild.tag == "c"
        assert parent.children[0].children[0] is grandchild

    def test_level_equals_dewey_length(self, simple_tree):
        for node in simple_tree.nodes:
            assert node.level == len(node.dewey)

    def test_root_level_is_one(self, simple_tree):
        assert simple_tree.root.level == 1
        assert simple_tree.root.dewey == (1,)

    def test_iter_subtree_document_order(self, simple_tree):
        tags = [n.tag for n in simple_tree.root.iter_subtree()]
        assert tags == ["bib", "book", "title", "chapter", "section",
                        "section", "article"]

    def test_iter_subtree_from_inner_node(self, simple_tree):
        book = simple_tree.node_by_dewey((1, 1))
        tags = [n.tag for n in book.iter_subtree()]
        assert tags == ["book", "title", "chapter", "section", "section"]

    def test_subtree_text_concatenates_in_order(self, simple_tree):
        book = simple_tree.node_by_dewey((1, 1))
        assert book.subtree_text() == "XML basics intro details"

    def test_is_ancestor_of(self, simple_tree):
        root = simple_tree.root
        section = simple_tree.node_by_dewey((1, 1, 2, 1))
        assert root.is_ancestor_of(section)
        assert not section.is_ancestor_of(root)

    def test_is_ancestor_of_self_is_false(self, simple_tree):
        node = simple_tree.node_by_dewey((1, 1))
        assert not node.is_ancestor_of(node)

    def test_is_ancestor_of_sibling_is_false(self, simple_tree):
        book = simple_tree.node_by_dewey((1, 1))
        article = simple_tree.node_by_dewey((1, 2))
        assert not book.is_ancestor_of(article)
        assert not article.is_ancestor_of(book)

    def test_path_root_to_node(self, simple_tree):
        section = simple_tree.node_by_dewey((1, 1, 2, 2))
        assert [n.tag for n in section.path()] == ["bib", "book", "chapter",
                                                   "section"]

    def test_attributes_preserved(self):
        node = Node("item", attributes={"id": "i42"})
        assert node.attributes["id"] == "i42"


class TestXMLTree:
    def test_freeze_assigns_dewey_in_document_order(self, simple_tree):
        deweys = [n.dewey for n in simple_tree.nodes]
        assert deweys == sorted(deweys)
        assert deweys[0] == (1,)

    def test_freeze_is_idempotent(self, simple_tree):
        before = [n.dewey for n in simple_tree.nodes]
        simple_tree.freeze()
        assert [n.dewey for n in simple_tree.nodes] == before

    def test_len_counts_all_nodes(self, simple_tree):
        assert len(simple_tree) == 7

    def test_depth(self, simple_tree):
        assert simple_tree.depth == 4

    def test_node_by_dewey_lookup(self, simple_tree):
        assert simple_tree.node_by_dewey((1, 2)).tag == "article"

    def test_node_by_dewey_accepts_list(self, simple_tree):
        assert simple_tree.node_by_dewey([1, 2]).tag == "article"

    def test_node_by_dewey_missing_raises(self, simple_tree):
        with pytest.raises(KeyError):
            simple_tree.node_by_dewey((1, 9))

    def test_sibling_ordinals_start_at_one(self, simple_tree):
        chapter = simple_tree.node_by_dewey((1, 1, 2))
        assert [c.dewey[-1] for c in chapter.children] == [1, 2]

    def test_find_all(self, simple_tree):
        sections = simple_tree.find_all(lambda n: n.tag == "section")
        assert len(sections) == 2

    def test_frozen_flag(self):
        tree = XMLTree(Node("a"))
        assert not tree.frozen
        tree.freeze()
        assert tree.frozen


class TestSerialization:
    def test_to_xml_roundtrip_structure(self, simple_tree):
        from repro.xmltree.parser import parse_xml

        text = simple_tree.to_xml()
        reparsed = parse_xml(text)
        assert [n.tag for n in reparsed.nodes] == \
            [n.tag for n in simple_tree.nodes]
        assert [n.text for n in reparsed.nodes] == \
            [n.text for n in simple_tree.nodes]

    def test_to_xml_escapes_special_characters(self):
        root = Node("a", "x < y & z")
        text = XMLTree(root).freeze().to_xml()
        assert "&lt;" in text and "&amp;" in text

    def test_to_xml_indented_is_parseable(self, simple_tree):
        from repro.xmltree.parser import parse_xml

        reparsed = parse_xml(simple_tree.to_xml(indent=True))
        assert len(reparsed) == len(simple_tree)

    def test_empty_element_self_closes(self):
        root = Node("a")
        root.add_child(Node("b"))
        assert "<b/>" in XMLTree(root).freeze().to_xml()

    def test_document_carries_what_a_tree_holds(self):
        """A tree built from nodes is used through its document: every
        attribute value and any text character come back from it (one
        XML cannot carry reads as U+FFFD)."""
        from repro.xmltree.parser import parse_xml

        root = Node("a", "x\x00y & z", {"k": 'tab\there\nnew "q" & <b>'})
        root.add_child(Node("b", attributes={"e": ""}))
        again = parse_xml(XMLTree(root).freeze().document.decode())
        assert again.root.attributes == root.attributes
        assert again.root.children[0].attributes == {"e": ""}
        assert again.root.text == "x\ufffdy & z"


class TestBuildTree:
    def test_spec_with_text_and_children(self):
        tree = build_tree(("bib", [("paper", "XML data", [])]))
        assert tree.root.tag == "bib"
        assert tree.root.children[0].text == "XML data"

    def test_spec_tag_only_string(self):
        tree = build_tree("solo")
        assert tree.root.tag == "solo"
        assert len(tree) == 1

    def test_spec_is_frozen(self):
        tree = build_tree(("a", [("b", [])]))
        assert tree.frozen
        assert tree.node_by_dewey((1, 1)).tag == "b"

    def test_nested_spec_depth(self):
        tree = build_tree(("a", [("b", [("c", [("d", "deep", [])])])]))
        assert tree.depth == 4
        assert tree.node_by_dewey((1, 1, 1, 1)).text == "deep"
