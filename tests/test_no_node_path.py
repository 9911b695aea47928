"""One node representation: the generate -> build -> query -> shard ->
save -> open path builds no `Node`.

A database is its node table plus its document bytes.  The generators
write the bytes, one parse fills the table, and every engine answers
with `TableNode` views; a `Node` is built only for JDewey maintenance,
attributes / `to_xml` and the oracle.
"""

import pytest

from repro import XMLDatabase
from repro.datagen import (CorrelatedGroup, DBLPGenerator, PlantedTerm,
                           PlantingPlan, XMarkGenerator)
from repro.diskdb import load_database, save_database
from repro.serve import ShardedDatabase
from repro.xmltree.nodetable import NodeTable, TableNode
from repro.xmltree.tree import Node

PLAN = PlantingPlan([PlantedTerm("kx", 40, (1, 3)), PlantedTerm("ky", 30)],
                    [CorrelatedGroup(("kx", "ky"), 20, tf_range=(1, 2))])
QUERY = "kx ky"


def answers(results):
    assert all(isinstance(r.node, TableNode) for r in results)
    return [(r.node.dewey, r.node.tag, round(r.score, 9)) for r in results]


@pytest.fixture
def no_node(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("a Node was built")

    monkeypatch.setattr(Node, "__init__", refuse)


@pytest.mark.parametrize("generate", [
    lambda: DBLPGenerator(seed=7, n_papers=300, abstract_words=6,
                          plan=PLAN).generate(),
    lambda: XMarkGenerator(seed=7, scale=0.003, plan=PLAN).generate(),
], ids=["dblp", "xmark"])
def test_the_path_builds_no_node(no_node, tmp_path, generate):
    db = XMLDatabase.from_tree(generate())
    for semantics in ("elca", "slca"):
        complete = answers(db.search(QUERY, semantics))
        assert complete
        for algorithm in ("stack", "index"):
            assert answers(db.search(QUERY, semantics, algorithm)) == complete
        ranked = answers(db.search_ranked(QUERY, semantics))
        for algorithm in ("hybrid", "topk-join", "rdil", "join"):
            top = answers(db.search_topk(QUERY, 5, semantics,
                                         algorithm=algorithm))
            assert [score for *_, score in top] == \
                [score for *_, score in ranked[:5]]
    sharded = ShardedDatabase.from_database(db, 2)
    assert answers(sharded.search(QUERY)) == \
        answers(db.search(QUERY))
    assert answers(sharded.search_topk(QUERY, 5)) == \
        answers(db.search_topk(QUERY, 5))
    flat, shards = str(tmp_path / "flat"), str(tmp_path / "shards")
    save_database(db, flat, fsync=False)
    save_database(db, shards, shards=2, fsync=False)
    for path in (flat, shards):
        opened = load_database(path)
        assert answers(opened.search(QUERY)) == \
            answers(db.search(QUERY))
        assert answers(opened.search_topk(QUERY, 5)) == \
            answers(db.search_topk(QUERY, 5))
    assert not hasattr(NodeTable(), "_real_nodes")
    assert not hasattr(db.columnar_index.nodes, "_real_nodes")
