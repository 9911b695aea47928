"""Dewey lists and nodes as views: derived on first use, from the
columnar postings and the node table, the same in memory and on disk.

One differential matrix: hypothesis trees x {in memory, eager, lazy}
x shards {1, 2, 4} against the per-node reference build
(`tests/reference_build.py`); then what an opened database may and may
not touch (no XML parse until the oracle asks), and that a directory
written before the node table existed is refused with the way to
rebuild it.
"""

import asyncio
import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.diskdb as diskdb
from repro import XMLDatabase
from repro.diskdb import load_database, save_database
from repro.serve.sharding import shard_of_dewey
from repro.xmltree.nodetable import TableNode
from repro.xmltree.tree import Node, XMLTree
from tests.conftest import SMALL_XML
from tests.reference_build import reference_dewey_lists

DATA = os.path.join(os.path.dirname(__file__), "data")
WORDS = ["kx", "ky", "kz", "noise", "a&b", "<tag>"]


@st.composite
def labelled_tree(draw):
    """A random tree whose nodes carry random words -- including ones the
    serializer must escape, so text references are exercised -- with deep
    chains and wide fan-out both reachable."""
    shape = draw(st.recursive(
        st.just(()),
        lambda c: st.lists(c, min_size=0, max_size=5),
        max_leaves=20))
    picks = draw(st.lists(st.lists(st.sampled_from(WORDS), max_size=3),
                          min_size=1, max_size=64))
    counter = [0]

    def build(spec):
        words = picks[counter[0] % len(picks)]
        counter[0] += 1
        node = Node("n%d" % (counter[0] % 3), " ".join(words))
        for child_spec in (spec if isinstance(spec, list) else []):
            node.add_child(build(child_spec))
        return node

    return XMLTree(build(shape)).freeze()


def lists_of(db):
    index = db.inverted_index
    return {term: [(p.dewey, p.score) for p in index.term_list(term).postings]
            for term in index.vocabulary}


STORAGE = [("memory", None),
           ("eager", {"verify": "eager"}),
           ("lazy", {"lazy": True, "verify": "lazy"})]


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(labelled_tree())
def test_derived_lists_equal_the_reference_builder(tree):
    db = XMLDatabase.from_tree(tree)
    expected = reference_dewey_lists(tree, db.tokenizer, db.ranking)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "flat")
        save_database(db, path, fsync=False)
        for name, kwargs in STORAGE:
            opened = db if kwargs is None else load_database(path, **kwargs)
            # order, Dewey ids and scores, bit for bit
            assert lists_of(opened) == expected, name
        for n_shards in (1, 2, 4):
            path = os.path.join(tmp, f"shards{n_shards}")
            save_database(db, path, shards=n_shards, fsync=False)
            sharded = load_database(path, lazy=True, verify="lazy")
            for sid, shard in enumerate(sharded.shards):
                want = {}
                for term, postings in expected.items():
                    mine = [p for p in postings
                            if shard_of_dewey(p[0], n_shards) == sid]
                    if mine:
                        want[term] = mine
                assert lists_of(shard) == want, (n_shards, sid)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(labelled_tree())
def test_table_nodes_mirror_the_tree(tree):
    db = XMLDatabase.from_tree(tree)
    with tempfile.TemporaryDirectory() as tmp:
        save_database(db, tmp, fsync=False)
        nodes = load_database(tmp).columnar_index.nodes
        assert len(nodes) == len(tree) and nodes.depth == tree.depth
        for real in tree.nodes:
            got = nodes.node_at(real.level, real.jdewey[-1])
            assert isinstance(got, TableNode)
            assert got == nodes.node_by_dewey(real.dewey)
            assert (got.row, got.tag, got.level, got.dewey, got.jdewey) == \
                (real.row, real.tag, real.level, real.dewey, real.jdewey)
            # what a re-parse of the saved document would say
            assert got.text == " ".join(real.text.split())
            assert [c.dewey for c in got.children] == \
                [c.dewey for c in real.children]
            assert (got.parent.dewey if got.parent else None) == \
                (real.parent.dewey if real.parent else None)
            assert all(type(c) is int for c in got.dewey + got.jdewey)


@pytest.fixture
def saved_dirs(tmp_path, dblp_db):
    flat, sharded = str(tmp_path / "flat"), str(tmp_path / "sharded")
    save_database(dblp_db, flat, fsync=False)
    save_database(dblp_db, sharded, shards=2, fsync=False)
    return flat, sharded


def canon(results):
    return [(r.node.dewey, round(r.score, 12)) for r in results]


class TestOpenedDatabaseParsesNothing:
    QUERY = ["alpha", "beta"]

    def _count_parses(self, monkeypatch):
        calls = []
        real = diskdb.parse_xml

        def counting(text):
            calls.append(1)
            return real(text)

        monkeypatch.setattr(diskdb, "parse_xml", counting)
        return calls

    def test_join_topk_and_baselines_without_the_tree(self, saved_dirs,
                                                     dblp_db, monkeypatch):
        def boom(text):
            raise AssertionError("document.xml parsed")

        monkeypatch.setattr(diskdb, "parse_xml", boom)
        flat, _ = saved_dirs
        for kwargs in ({}, {"lazy": True, "verify": "lazy"}):
            db = load_database(flat, **kwargs)
            assert len(db) == len(dblp_db) and db.depth == dblp_db.depth
            assert db.document_frequency("alpha") == \
                dblp_db.document_frequency("alpha")
            for algorithm in ("join", "stack", "index"):
                for semantics in ("elca", "slca"):
                    assert canon(db.search(self.QUERY, semantics,
                                           algorithm)) == \
                        canon(dblp_db.search(self.QUERY, semantics,
                                             algorithm))
            for algorithm in ("topk-join", "rdil", "hybrid", "join"):
                assert canon(db.search_topk(self.QUERY, 5,
                                            algorithm=algorithm)) == \
                    canon(dblp_db.search_topk(self.QUERY, 5,
                                              algorithm=algorithm))
            hit = db.search(self.QUERY)[0].node
            assert hit.subtree_text() == \
                dblp_db.tree.node_by_dewey(hit.dewey).subtree_text()

    def test_served_queries_without_the_tree(self, saved_dirs, dblp_db,
                                             monkeypatch):
        from repro.serve.daemon import ServeDaemon

        def boom(text):
            raise AssertionError("document.xml parsed")

        monkeypatch.setattr(diskdb, "parse_xml", boom)
        _, sharded = saved_dirs
        db = load_database(sharded, lazy=True, verify="lazy")
        assert len(db) == len(dblp_db)
        daemon = ServeDaemon(db, workers=0)

        async def drive():
            await daemon.start()
            try:
                out = []
                for path in ("/search?q=alpha+beta",
                             "/topk?q=alpha+beta&k=5"):
                    status, _headers, body = await daemon._dispatch(
                        "GET", path)
                    assert status == 200, body
                    out.append(body)
                return out
            finally:
                await daemon.stop()

        import json

        complete, top = (json.loads(body) for body in asyncio.run(drive()))
        assert [(tuple(r["dewey"]), round(r["score"], 12))
                for r in complete["results"]] == \
            canon(dblp_db.search(self.QUERY))
        assert [(tuple(r["dewey"]), round(r["score"], 12))
                for r in top["results"]] == \
            canon(dblp_db.search_topk(self.QUERY, 5))

    def test_oracle_parses_exactly_once(self, saved_dirs, dblp_db,
                                        monkeypatch):
        calls = self._count_parses(monkeypatch)
        flat, _ = saved_dirs
        db = load_database(flat, lazy=True, verify="lazy")
        db.search(self.QUERY)
        assert calls == []
        for _ in range(2):
            assert canon(db.search(self.QUERY, algorithm="oracle")) == \
                canon(dblp_db.search(self.QUERY, algorithm="oracle"))
        assert calls == [1]
        assert db.search(self.QUERY)[0].fragment() == \
            dblp_db.search(self.QUERY)[0].fragment()
        assert calls == [1]

    def test_refresh_reindexes_from_the_parsed_document(self, saved_dirs,
                                                        dblp_db):
        flat, _ = saved_dirs
        db = load_database(flat)
        before = canon(db.search(self.QUERY))
        db.refresh()
        assert canon(db.search(self.QUERY)) == before
        assert isinstance(db.search(self.QUERY)[0].node, TableNode)


class TestShardBaselines:
    """Each shard's Dewey lists derive from that shard's postings, so a
    baseline on a shard answers exactly what the join does there."""

    @pytest.mark.parametrize("n_shards", (2, 4))
    def test_stack_equals_join_on_every_shard(self, saved_dirs, dblp_db,
                                              tmp_path, n_shards):
        path = str(tmp_path / "db")
        save_database(dblp_db, path, shards=n_shards, fsync=False)
        on_disk = load_database(path, lazy=True, verify="lazy")
        from repro.serve import ShardedDatabase

        in_memory = ShardedDatabase.from_database(dblp_db, n_shards)
        total = 0
        for sharded in (on_disk, in_memory):
            for shard in sharded.shards:
                for query in (["alpha", "beta"], ["gamma", "beta"],
                              ["alpha"]):
                    for semantics in ("elca", "slca"):
                        join = canon(shard.search(query, semantics, "join"))
                        assert canon(shard.search(query, semantics,
                                                  "stack")) == join
                        total += len(join)
        assert total
        # and the postings really are spread out (they all used to land
        # in shard 0's Dewey file)
        counts = [sum(len(s.inverted_index.term_list(t))
                      for t in s.inverted_index.vocabulary)
                  for s in on_disk.shards]
        assert all(counts)


class TestDirectoriesFromBeforeTheTable:
    """`tests/data/pre_table_v2` was written by the commit before the
    node table, in what was then the default format (v2): `dewey.bin`
    holds a Dewey posting container, `columnar.bin` a blocked one.
    Such a directory is no longer opened -- it is refused, typed, with
    the way to rebuild it."""

    @pytest.mark.parametrize("kwargs", ({}, {"lazy": True,
                                             "verify": "lazy"},
                                        {"verify": "off"}))
    def test_is_refused_with_the_way_back(self, kwargs):
        from repro.reliability import (DatabaseCorruptError,
                                       DatabaseFormatError)

        path = os.path.join(DATA, "pre_table_v2")
        with pytest.raises(DatabaseFormatError) as err:
            load_database(path, **kwargs)
        assert not isinstance(err.value, DatabaseCorruptError)
        assert str(err.value) == (
            f"{path!r} is in format version 2; this release reads and "
            "writes version 5 only.  Rebuild it from its document: "
            f"repro index {os.path.join(path, 'document.xml')} <new-dir>")

    def test_the_way_back_works(self, tmp_path):
        from repro.cli import main

        rebuilt = str(tmp_path / "rebuilt")
        assert main(["index", os.path.join(DATA, "pre_table_v2",
                                           "document.xml"), rebuilt]) == 0
        fresh = XMLDatabase.from_xml_text(SMALL_XML)
        db = load_database(rebuilt, lazy=True, verify="lazy")
        assert lists_of(db) == lists_of(fresh)
        for semantics in ("elca", "slca"):
            assert canon(db.search("xml data", semantics)) == \
                canon(fresh.search("xml data", semantics))

    def test_the_cli_refuses_it_too(self, capsys):
        from repro.cli import main
        from repro.diskdb import read_meta
        from repro.reliability import DatabaseFormatError

        path = os.path.join(DATA, "pre_table_v2")
        with pytest.raises(DatabaseFormatError, match="format version 2"):
            read_meta(path)
        for argv in (["info", path], ["search", path, "xml data"]):
            assert main(argv) != 0
            assert "format version 2" in capsys.readouterr().err
