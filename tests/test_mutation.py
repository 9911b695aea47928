"""Tests for the document-mutation workflow: encoder maintenance plus
`XMLDatabase.refresh`."""

import pytest

from repro import XMLDatabase
from repro.xmltree.tree import Node


@pytest.fixture
def db():
    return XMLDatabase.from_xml_text(
        "<bib>"
        "<paper><title>xml search</title></paper>"
        "<paper><title>data models</title></paper>"
        "</bib>", jdewey_gap=2)


class TestInsertAndRefresh:
    def test_new_occurrence_found_after_refresh(self, db):
        # Initially the root is the only node covering both keywords.
        before = db.search("xml data")
        assert [r.node.tag for r in before] == ["bib"]
        paper = db.tree.root.children[0]
        db.encoder.insert(paper, Node("note", "data appendix"))
        db.refresh()
        # The first paper now nests both; the root loses its free xml
        # witness (it only lives under the new C-node) and drops out.
        after = db.search("xml data")
        assert [r.node.tag for r in after] == ["paper"]

    def test_all_algorithms_agree_after_mutation(self, db):
        paper = db.tree.root.children[1]
        db.encoder.insert(paper, Node("note", "xml extras"))
        db.refresh()
        oracle = db.search("xml data", algorithm="oracle")
        assert oracle  # paper 2 now has both
        for algorithm in ("join", "stack", "index"):
            got = db.search("xml data", algorithm=algorithm)
            assert [(r.node.dewey, round(r.score, 9)) for r in got] == \
                [(r.node.dewey, round(r.score, 9)) for r in oracle]

    def test_topk_after_mutation(self, db):
        for i, paper in enumerate(db.tree.root.children):
            db.encoder.insert(paper, Node("note", "xml data " * (i + 1)))
        db.refresh()
        top = db.search_topk("xml data", 2)
        ranked = db.search_ranked("xml data")
        assert [round(r.score, 9) for r in top] == \
            [round(r.score, 9) for r in ranked[:2]]

    def test_jdewey_invariants_survive_mutations(self, db):
        for _ in range(6):
            db.encoder.insert(db.tree.root.children[0], Node("x", "pad"))
        db.encoder.validate()
        db.refresh()
        assert db.search("pad")  # occurrences indexed

    def test_stale_index_without_refresh(self, db):
        """Without refresh the old index answers from the old document --
        the documented contract."""
        paper = db.tree.root.children[0]
        db.inverted_index  # build
        db.encoder.insert(paper, Node("note", "freshword"))
        assert db.document_frequency("freshword") == 0
        db.refresh()
        assert db.document_frequency("freshword") == 1


class TestDeleteAndRefresh:
    def test_deleted_occurrence_gone(self, db):
        title = db.tree.root.children[0].children[0]
        assert db.search(["search"])
        db.encoder.delete(title)
        db.refresh()
        assert db.search(["search"]) == []

    def test_delete_subtree_then_queries_consistent(self, db):
        db.encoder.delete(db.tree.root.children[1])
        db.refresh()
        oracle = db.search(["xml"], algorithm="oracle")
        for algorithm in ("join", "stack", "index"):
            got = db.search(["xml"], algorithm=algorithm)
            assert [r.node.dewey for r in got] == \
                [r.node.dewey for r in oracle]

    def test_refresh_reassigns_dewey(self, db):
        db.encoder.delete(db.tree.root.children[0])
        db.refresh()
        # The remaining paper is now the first child: Dewey (1, 1).
        assert db.tree.root.children[0].dewey == (1, 1)


class TestJDeweyOrderAfterAReencode:
    """A re-encode moves a subtree to the numeric end of its levels, so
    JDewey order stops being document order; the index must keep its
    postings in JDewey order for the level join to be right."""

    def test_every_engine_equals_the_oracle(self):
        db = XMLDatabase.from_xml_text("<bib>" + "".join(
            f"<paper><title>xml search {i}</title><year>data</year></paper>"
            for i in range(4)) + "</bib>", jdewey_gap=0)
        db.encoder.insert(db.tree.root.children[0], Node("note", "xml data"))
        db.refresh()
        assert db.encoder.reencode_count == 1
        for semantics, count in (("elca", 5), ("slca", 4)):
            oracle = [(r.node.dewey, round(r.score, 9)) for r in db.search(
                "xml data", semantics, algorithm="oracle")]
            assert len(oracle) == count
            for algorithm in ("join", "stack", "index"):
                got = db.search("xml data", semantics, algorithm=algorithm)
                assert [(r.node.dewey, round(r.score, 9))
                        for r in got] == oracle, (semantics, algorithm)

    def test_reencoded_numbers_survive_refresh_save_and_open(self, tmp_path):
        """The table keeps the numbers a re-encode assigned (not the
        rule's), a save writes them, and an opened database's encoder
        starts from them and keeps the invariants under more inserts."""
        db = XMLDatabase.from_xml_text("<bib>" + "".join(
            f"<paper><title>xml {i}</title></paper>" for i in range(3))
            + "</bib>", jdewey_gap=0)
        db.encoder.insert(db.tree.root.children[0], Node("note", "data"))
        db.refresh()
        assert db.encoder.reencode_count == 1
        numbers = [node.jdewey[-1] for node in db.tree.nodes]
        assert db.columnar_index.nodes.number.tolist() == numbers
        db.save(str(tmp_path / "db"), fsync=False)
        opened = XMLDatabase.open(str(tmp_path / "db"))
        assert [n.jdewey[-1] for n in opened.tree.nodes] == numbers
        paper = opened.tree.root.children[1]
        opened.encoder.insert(paper, Node("note", "xml data"))
        opened.encoder.validate()
        opened.refresh()
        assert [(r.node.dewey, r.node.tag) for r in
                opened.search("xml data")] == \
            [((1, 1), "paper"), ((1, 2, 2), "note")] == \
            [(r.node.dewey, r.node.tag) for r in
             opened.search("xml data", algorithm="oracle")]
