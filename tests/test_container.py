"""The one on-disk format, end to end: what comes back from a saved
directory equals what went in.

One matrix -- {flat, 2 shards, 3 shards} x {eager, lazy} x verify
{eager, lazy, off} -- checked against the in-memory database for ELCA,
SLCA and top-K: on random trees (hypothesis), on a tree built so one
term's sequences have mixed lengths in an order that needs several
(length, run) pairs, and on a chain deep enough that a sequence length
no longer fits one byte -- the run-length coded lengths are the part of
the layout that is new, and `lengths - level` on a narrow unsigned view
would wrap there.  Then the manifest: one version, and a reader that
says so.

The flat-layout and zero-copy claims live in `tests/test_format_v3.py`,
the sharded layout and codec bytes in `tests/test_format_v4.py`, hostile
bytes in `tests/test_corruption.py` and the codec selector's size gate in
`tests/test_codecs_v4.py`; this file is the answers.
"""

import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro import XMLDatabase
from repro.diskdb import (_SUPPORTED_VERSIONS, FORMAT_VERSION,
                          load_database, save_database)
from repro.index import storage
from repro.xmltree.tree import Node, XMLTree
from tests.test_properties import labelled_tree, query_terms

LAYOUTS = (None, 2, 3)                          # shards
LOADS = [(lazy, verify) for lazy in (False, True)
         for verify in ("eager", "lazy", "off")]


def canon(results):
    return [(r.node.dewey, r.level, round(r.score, 12)) for r in results]


def answers(db, queries):
    out = []
    for terms in queries:
        for semantics in ("elca", "slca"):
            out.append(canon(db.search(list(terms), semantics,
                                       use_cache=False)))
            # Ties make the top-K *set* a choice (a sharded merge may
            # make another one); its scores are not.
            out.append([round(r.score, 12) for r in db.search_topk(
                list(terms), 3, semantics=semantics)])
    return out


def assert_matrix(db, queries):
    """Every (layout, load) cell answers like the in-memory `db`."""
    expected = answers(db, queries)
    with tempfile.TemporaryDirectory() as tmp:
        for shards in LAYOUTS:
            path = os.path.join(tmp, f"shards-{shards}")
            save_database(db, path, shards=shards, fsync=False)
            for lazy, verify in LOADS:
                opened = load_database(path, lazy=lazy, verify=verify)
                assert answers(opened, queries) == expected, \
                    (shards, lazy, verify)


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(labelled_tree(), query_terms)
def test_generated_trees_answer_like_memory(tree, terms):
    assert_matrix(XMLDatabase.from_tree(tree), [terms])


def mixed_length_tree():
    """``mix`` occurs at depths 2, 4, 2, 3, 3, 4, 2 in document order:
    its sequence lengths need seven (length, run) pairs but one, and
    its level-3 and level-4 columns skip sequences."""
    root = Node("root")
    for i, depth in enumerate((2, 4, 2, 3, 3, 4, 2)):
        node = root
        for level in range(2, depth + 1):
            child = Node(f"n{level}", "mix pal" if level == depth
                         else ("pal" if i % 2 else "other"))
            node.add_child(child)
            node = child
    return XMLTree(root).freeze()


def deep_chain_tree(depth=300):
    """A chain `depth` deep with ``deep`` at the bottom and on the way:
    sequence lengths pass 127 (one varint byte) and 255 (one byte)."""
    root = node = Node("root", "top")
    for level in range(2, depth + 1):
        words = "deep" if level in (3, 130, depth) else "link"
        if level == depth - 1:
            words = "deep other"
        child = Node("c", words)
        node.add_child(child)
        node = child
    return XMLTree(root).freeze()


class TestLengthsEncoding:
    def test_mixed_lengths_answer_like_memory(self):
        db = XMLDatabase.from_tree(mixed_length_tree())
        lengths = db.columnar_index.term_postings("mix").lengths.tolist()
        assert lengths == [2, 4, 2, 3, 3, 4, 2]
        assert_matrix(db, [("mix",), ("mix", "pal"), ("mix", "other"),
                           ("pal", "other")])

    def test_deep_chain_answers_like_memory(self):
        db = XMLDatabase.from_tree(deep_chain_tree())
        assert max(db.columnar_index.term_postings("deep").lengths) == 300
        assert_matrix(db, [("deep",), ("deep", "link"), ("deep", "other"),
                           ("deep", "top")])

    @pytest.mark.parametrize("tree,term", [(mixed_length_tree, "mix"),
                                           (deep_chain_tree, "deep")])
    def test_lengths_round_trip_as_int64(self, tree, term):
        postings = XMLDatabase.from_tree(tree()).columnar_index \
            .term_postings(term)
        payload = storage.serialize_columnar_payload(postings)
        lengths, scores, levels = storage.parse_payload(term, payload)
        assert lengths.dtype == np.int64
        assert lengths.tolist() == list(postings.lengths)
        assert len(levels) == postings.max_len
        # what the level loop computes: no wrap below a sequence's end
        assert ((lengths - postings.max_len) <= 0).all()
        assert np.array_equal(scores, postings.scores)

    def test_single_length_is_one_pair(self):
        """The common case the run-length coding is for: every sequence
        of a term has one length -- three bytes, not eight a sequence."""
        assert storage._encode_lengths([4] * 100_000) \
            == bytes([2, 4]) + bytes([0xa0, 0x8d, 0x06])
        assert storage._encode_lengths([]) == bytes([0])


class TestOneFormat:
    def test_there_is_one_version(self):
        assert _SUPPORTED_VERSIONS == (FORMAT_VERSION,) == (5,)

    @pytest.mark.parametrize("shards", LAYOUTS)
    def test_meta_and_magic_record_it(self, tmp_path, small_db, shards):
        path = str(tmp_path / "db")
        save_database(small_db, path, shards=shards)
        with open(os.path.join(path, "meta.json")) as handle:
            meta = json.load(handle)
        assert meta["format_version"] == FORMAT_VERSION
        for name in meta["checksum"]["files"]:
            if name.endswith("columnar.bin"):
                with open(os.path.join(path, name), "rb") as handle:
                    assert handle.read(4) == storage.MAGIC_COLUMNAR == b"JDX5"

    def test_no_format_argument_anywhere(self):
        """`save_database`, `XMLDatabase.save`, `repro index` and
        `repro generate` take no format argument; `load_database`,
        `LazyColumnarIndex` and `LazyColumnarPostings` no decoder
        switch."""
        import inspect

        from repro.cli import build_parser
        from repro.index.lazydisk import (LazyColumnarIndex,
                                          LazyColumnarPostings)

        for fn in (save_database, load_database, LazyColumnarIndex,
                   LazyColumnarPostings, storage.serialize_columnar_index):
            params = inspect.signature(fn).parameters
            assert not {"format_version", "vectorized",
                        "min_bytes"} & set(params), fn
        parser = build_parser()
        for verb in ("index", "generate"):
            with pytest.raises(SystemExit):
                parser.parse_args([verb, "a", "b", "--format-version", "4"])
