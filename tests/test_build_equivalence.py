"""The bulk index build against the per-node reference build
(`tests/reference_build.py`).

`ColumnarIndex` tokenizes every text in bulk, groups the occurrences
in JDewey order with one in-place sort of packed keys and scores each
distinct (df, tf, tokens) once, a chunk at a time.  Whatever the corpus, tokenizer, scorer or chunk size, the
result must be the per-node build's bit for bit: the vocabulary,
``n_docs``, every term's sequences in order, its lengths, the ``repr``
of every score, and the serialized container, flat and per shard.
"""

import gc
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import XMLDatabase
from repro.datagen import DBLPGenerator, XMarkGenerator
from repro.datagen.workload import WorkloadBuilder
from repro.diskdb import save_database
from repro.index import columnar, storage
from repro.index import tokenizer as tokenizer_module
from repro.index.columnar import ColumnarIndex, RowPostings
from repro.index.tokenizer import Tokenizer
from repro.scoring.ranking import ConstantScorer, RankingModel
from repro.serve.sharding import shard_owners, shard_postings
from repro.xmltree.nodetable import NodeTable
from repro.xmltree.tree import Node, XMLTree
from tests.reference_build import local_scores, reference_postings


def containers(index, tree):
    """The flat container of `index` and, for 2 and 3 shards, each
    shard's container as the save writes it: the whole index's batches,
    keeping the shard's occurrences.  Each must be the container of the
    shard's postings split off (`shard_postings`)."""
    out = [storage.serialize_columnar_index(index)]
    postings = {term: index.term_postings(term) for term in index.vocabulary}
    for n_shards in (2, 3):
        owners = shard_owners(postings, tree, n_shards)
        for sid in range(n_shards):
            shard = b"".join(storage.container_chunks(index, owners=owners,
                                                      sid=sid))
            assert shard == storage.serialize_columnar_index(
                ColumnarIndex.from_postings(
                    index.nodes, shard_postings(postings, owners, sid)))
            out.append(shard)
    return out


def assert_bulk_equals_reference(db):
    """`db`'s built index is the per-node build's, bit for bit."""
    built = db.columnar_index
    expected, n_docs = reference_postings(db.tree, db.tokenizer, db.ranking)
    assert built.n_docs == n_docs
    assert built.vocabulary == sorted(expected)
    for term in built.vocabulary:
        got, want = built.term_postings(term), expected[term]
        assert got.seqs == want.seqs, term
        assert got.lengths.dtype == want.lengths.dtype
        assert np.array_equal(got.lengths, want.lengths), term
        assert list(map(repr, got.scores.tolist())) == \
            list(map(repr, want.scores.tolist())), term
    reference = ColumnarIndex.from_postings(built.nodes, expected,
                                            n_docs=n_docs)
    assert containers(built, db.tree) == containers(reference, db.tree)
    for term in built.vocabulary[:20]:
        got, want = built.term_postings(term), expected[term]
        for level in range(1, want.max_len + 2):
            assert np.array_equal(got.column(level).values,
                                  want.column(level).values)
            assert np.array_equal(got.column(level).seq_idx,
                                  want.column(level).seq_idx)


# ---------------------------------------------------------------------------
# corpora
# ---------------------------------------------------------------------------

def test_dblp_smoke_corpus():
    tree = DBLPGenerator(seed=7, n_papers=300, abstract_words=6).generate()
    assert_bulk_equals_reference(XMLDatabase.from_tree(tree))


def test_xmark_smoke_corpus():
    tree = XMarkGenerator(seed=7, scale=0.005).generate()
    assert_bulk_equals_reference(XMLDatabase.from_tree(tree))


def test_dblp_with_small_chunks_and_another_tokenizer():
    tree = DBLPGenerator(seed=3, n_papers=120, abstract_words=4).generate()
    with mock.patch.object(tokenizer_module, "CHUNK_TEXTS", 7):
        assert_bulk_equals_reference(XMLDatabase.from_tree(
            tree, tokenizer=Tokenizer(stopwords=(), min_length=3)))


# ---------------------------------------------------------------------------
# hostile texts
# ---------------------------------------------------------------------------

#: Case, digits, apostrophes and hyphens where a node (and, with one
#: text a chunk, a chunk) begins or ends; stopword-only, blank and empty
#: texts; and texts holding the separator the bulk tokenizer joins with.
HOSTILE = [
    "XML Data", "xml-", "-data", "o'neil's top-k", "'", "-", "--x--",
    "2010 ICDE", "the of and", "", "   ", "A", "an xml", "x\x00y",
    "\x00", "data\x00\x00xml", "top-\x00k", "fagin'\x00s", "MiXeD CaSe",
    "don't-stop ok", "İstanbul Kelvin", "x\x00", "\x00XML",
    "stop' -go", "ab-'cd", "xml's data-xml",
]


def hostile_tree(texts=HOSTILE, fanout=3) -> XMLTree:
    """Programmatic nodes carrying `texts`, a few children each."""
    nodes = [Node(f"t{i % 4}", text) for i, text in enumerate(texts)]
    for i, node in enumerate(nodes[1:], 1):
        nodes[(i - 1) // fanout].add_child(node)
    return XMLTree(nodes[0]).freeze()


class CustomScorer:
    """Uses every argument, so a swapped or mis-typed one shows."""

    def score(self, tf, df, n_docs, node_tokens):
        return math.sin(tf) + df / (n_docs + 0.5) + 1 / (node_tokens + 3)


TOKENIZERS = [Tokenizer(), Tokenizer(stopwords=()),
              Tokenizer(stopwords=(), min_length=3),
              Tokenizer(stopwords={"xml", "data"}, min_length=2)]
RANKINGS = [RankingModel(), RankingModel(scorer=ConstantScorer(2.5)),
            RankingModel(scorer=CustomScorer())]


@pytest.mark.parametrize("chunk", [1, 2, 3, 5, 4096])
@pytest.mark.parametrize("tokenizer", TOKENIZERS)
@pytest.mark.parametrize("ranking", RANKINGS)
def test_hostile_texts(chunk, tokenizer, ranking):
    with mock.patch.object(tokenizer_module, "CHUNK_TEXTS", chunk):
        assert_bulk_equals_reference(XMLDatabase.from_tree(
            hostile_tree(), tokenizer=tokenizer, ranking=ranking))


def test_a_document_without_a_token():
    db = XMLDatabase.from_tree(hostile_tree(["", "the", "  of  ", "\x00"]))
    assert db.columnar_index.vocabulary == [] and db.columnar_index.n_docs == 0
    assert_bulk_equals_reference(db)


def test_one_score_call_per_distinct_df_tf_and_tokens():
    calls = []

    class Counting:
        def score(self, tf, df, n_docs, node_tokens):
            calls.append((tf, df, n_docs, node_tokens))
            return float(tf)

    db = XMLDatabase.from_tree(
        DBLPGenerator(seed=7, n_papers=200, abstract_words=6).generate(),
        ranking=RankingModel(scorer=Counting()))
    index = db.columnar_index
    distinct = set()
    for term in index.vocabulary:
        postings = index.term_postings(term)
        for row in postings.rows.tolist():
            counts = index.tokenizer.term_frequencies(db.tree.nodes[row].text)
            distinct.add((counts[term], len(postings), index.n_docs,
                          sum(counts.values())))
    assert sorted(calls) == sorted(distinct)
    assert len(calls) < sum(len(index.term_postings(t))
                            for t in index.vocabulary)
    assert all(type(arg) is int for call in calls for arg in call)


# ---------------------------------------------------------------------------
# JDewey order after a re-encode
# ---------------------------------------------------------------------------

def reencoded_db() -> XMLDatabase:
    """Four papers, densest numbering; one insert under the first paper
    re-encodes its subtree to the numeric end of every level, so JDewey
    order no longer follows document order."""
    db = XMLDatabase.from_xml_text("<bib>" + "".join(
        f"<paper><title>xml search {i}</title><year>data</year></paper>"
        for i in range(4)) + "</bib>", jdewey_gap=0)
    db.encoder.insert(db.tree.root.children[0], Node("note", "xml data"))
    db.refresh()
    return db


def test_postings_follow_jdewey_order_after_a_reencode():
    db = reencoded_db()
    assert db.encoder.reencode_count == 1
    postings = db.columnar_index.term_postings("xml")
    assert postings.rows.tolist() == [6, 9, 12, 2, 4]
    assert postings.seqs == sorted(postings.seqs)
    assert_bulk_equals_reference(db)


def test_jdewey_ranks_sort_the_sequences():
    db = reencoded_db()
    ranks = db.columnar_index.nodes.jdewey_ranks()
    nodes = db.tree.nodes
    assert sorted(range(len(nodes)), key=lambda r: nodes[r].jdewey) == \
        np.argsort(ranks).tolist()
    assert sorted(ranks.tolist()) == list(range(len(nodes)))


# ---------------------------------------------------------------------------
# random trees
# ---------------------------------------------------------------------------

@st.composite
def hostile_trees(draw):
    """A random tree of hostile texts, sometimes re-encoded by inserts."""
    texts = draw(st.lists(st.sampled_from(HOSTILE + ["kx ky", "ky", "kz"]),
                          min_size=1, max_size=40))
    db = XMLDatabase.from_tree(
        hostile_tree(texts, draw(st.integers(1, 4))), jdewey_gap=0,
        tokenizer=draw(st.sampled_from(TOKENIZERS)),
        ranking=draw(st.sampled_from(RANKINGS)))
    for _ in range(draw(st.integers(0, 3))):
        parent = draw(st.sampled_from(db.tree.nodes))
        db.encoder.insert(parent, Node("new", draw(st.sampled_from(HOSTILE))))
        db.refresh()
    return db


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(hostile_trees(), st.integers(1, 6))
def test_random_trees(db, chunk):
    with mock.patch.object(tokenizer_module, "CHUNK_TEXTS", chunk):
        assert_bulk_equals_reference(db)


# ---------------------------------------------------------------------------
# what a built index holds
# ---------------------------------------------------------------------------

def test_no_object_per_occurrence():
    index = XMLDatabase.from_tree(
        DBLPGenerator(seed=7, n_papers=100).generate()).columnar_index
    for term in index.vocabulary:
        postings = index.term_postings(term)
        assert type(postings) is RowPostings
        assert postings.rows.dtype == np.int32
        held = vars(postings)
        assert "seqs" not in held
        assert all(isinstance(value, (str, int, dict, np.ndarray, NodeTable))
                   for value in held.values()), term


def test_every_level_of_a_term_from_one_sweep(monkeypatch):
    """Reading all of a term's columns walks the node table once (one
    `NodeTable.paths` sweep), not once per level, and each column is
    that level of the sequences."""
    index = XMLDatabase.from_tree(DBLPGenerator(
        seed=7, n_papers=100, abstract_words=4).generate()).columnar_index
    sweeps = []
    paths = NodeTable.paths
    monkeypatch.setattr(NodeTable, "paths", lambda table, rows, column: (
        sweeps.append(column), paths(table, rows, column))[1])
    deep = [t for t in index.vocabulary
            if index.term_postings(t).max_len > 2][:10]
    assert deep
    for term in deep:
        postings = index.term_postings(term)
        del sweeps[:]
        columns = [postings.column(level)
                   for level in range(postings.max_len, 0, -1)]
        assert postings.column(postings.max_len + 1).n_distinct == 0
        assert sweeps == ["number"], term
        matrix = postings._paths()
        for column in columns:
            ordinals = np.flatnonzero(postings.lengths >= column.level)
            assert np.array_equal(column.values,
                                  matrix[ordinals, column.level - 1])
            assert np.array_equal(column.seq_idx, ordinals)


#: `tracemalloc` peak above its start, in MiB, of ``XMLDatabase.from_tree``
#: plus the columnar build over ``DBLPGenerator(seed=7, n_papers=2000)``
#: with the per-node build (`tests/reference_build.py`), measured by this
#: test's protocol.  The bulk build must not exceed it.
PER_NODE_BUILD_PEAK_MIB = 6.77


def test_build_peak_memory_at_2000_papers():
    tree = DBLPGenerator(seed=7, n_papers=2000).generate()
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        XMLDatabase.from_tree(tree).columnar_index
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= PER_NODE_BUILD_PEAK_MIB * 2 ** 20, peak / 2 ** 20


#: `tracemalloc` peak above its start, in MiB, of generating the
#: 2 000-paper planted DBLP corpus (`generate_and_build`) and building
#: its columnar index.  The per-element generator and the ``lexsort``
#: build peaked at 5.40 MiB by this protocol; the bulk pipeline at 4.29.
GENERATE_AND_BUILD_PEAK_MIB = 4.75


def generate_and_build():
    builder = WorkloadBuilder(high_freq=400, low_freqs=(2, 10, 100, 400),
                              per_cell=2, max_keywords=5,
                              correlated_entities=250, seed=11)
    generator = DBLPGenerator(seed=7, n_papers=2000, abstract_words=12,
                              plan=builder.plan())
    return lambda: XMLDatabase.from_tree(generator.generate()).columnar_index


def test_generate_and_build_peak_memory_at_2000_papers():
    run = generate_and_build()
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        run()
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= GENERATE_AND_BUILD_PEAK_MIB * 2 ** 20, peak / 2 ** 20


# ---------------------------------------------------------------------------
# the packed sort key and the chunked score lookup
# ---------------------------------------------------------------------------

def test_packed_keys_sort_as_their_fields():
    rng = np.random.default_rng(1)
    fields = [(rng.integers(0, bound, 5000), bound)
              for bound in (2 ** 20, 3, 2 ** 41)]     # 20 + 2 + 41 bits
    key, shifts = columnar._pack(*fields)
    assert shifts == [43, 41]
    assert np.array_equal(np.argsort(key, kind="stable"),
                          np.lexsort([values for values, _ in fields[::-1]]))
    assert np.array_equal(key >> 43, fields[0][0])
    assert np.array_equal((key >> 41) & 3, fields[1][0])


def test_a_key_past_the_bit_budget_is_refused(monkeypatch):
    """A vocabulary x node count x tf that needs more bits than a key
    holds raises rather than wrapping a key and mis-sorting."""
    with pytest.raises(OverflowError, match="do not pack"):
        columnar._pack((np.zeros(3, dtype=np.int64), 2 ** 40),
                       (np.zeros(3, dtype=np.int64), 2 ** 20),
                       (np.zeros(3, dtype=np.int64), 2 ** 4))
    tree = DBLPGenerator(seed=7, n_papers=50).generate()
    index = XMLDatabase.from_tree(tree).columnar_index
    needed = sum((bound - 1).bit_length() for bound in (
        len(index.vocabulary) + 1, len(index.nodes), 2))
    monkeypatch.setattr(columnar, "KEY_BITS", needed - 1)
    with pytest.raises(OverflowError):
        XMLDatabase.from_tree(
            DBLPGenerator(seed=7, n_papers=50).generate()).columnar_index


@pytest.mark.parametrize("chunk", [1, 7, 1 << 14])
@pytest.mark.parametrize("ranking", RANKINGS)
def test_chunked_scores_are_the_lexsort_scores(monkeypatch, chunk, ranking):
    """`_scores` over the occurrences grouped by term gives each the
    score the text-order ``lexsort`` scoring did, bit for bit, calling
    the scorer once per distinct triple."""
    monkeypatch.setattr(columnar, "SCORE_CHUNK", chunk)
    rng = np.random.default_rng(chunk)
    term = rng.integers(0, 40, 3000).astype(np.int32)
    tf = rng.integers(1, 6, 3000).astype(np.int32)
    tokens = (tf + rng.integers(0, 9, 3000)).astype(np.int32)
    want = local_scores(ranking.scorer, term, tf, tokens, 77)
    by_term = np.argsort(term, kind="stable")
    calls = []

    class Recording:
        def score(self, *args):
            calls.append(args)
            return ranking.scorer.score(*args)

    got = columnar._scores(Recording(), tf[by_term],
                           np.bincount(term)[np.unique(term)],
                           tokens[by_term], 77)
    assert list(map(repr, got.tolist())) == \
        list(map(repr, want[by_term].tolist()))
    assert len(calls) == len(set(calls))


def test_lengths_are_read_on_first_use(tmp_path):
    """A built index keeps no term's lengths until one is read (a save
    reads them off the table for its batch instead)."""
    db = XMLDatabase.from_tree(DBLPGenerator(seed=7, n_papers=100).generate())
    index = db.columnar_index
    save_database(db, str(tmp_path / "flat"), fsync=False)
    save_database(db, str(tmp_path / "sharded"), fsync=False, shards=2)
    postings = [index.term_postings(term) for term in index.vocabulary]
    assert not any("_lengths" in vars(p) for p in postings)
    for p in postings:
        assert p.max_len == int(index.nodes.level[p.rows].max())
    first = postings[0].lengths
    assert first.dtype == np.int64
    assert np.array_equal(first, index.nodes.level[postings[0].rows])
    assert postings[0].lengths is first
    assert not any("_lengths" in vars(p) for p in postings[1:])
