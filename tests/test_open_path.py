"""`load_database` has one open path.

Whatever ``verify`` says -- and whatever the inert ``lazy`` keyword
says -- the container is mapped and served through `LazyColumnarIndex`;
the modes differ only in what is checked when.  Answers equal the
in-memory database's on `test_sharded.py`'s queries; a default open
refuses a flipped byte and out-of-sync files before any query, and with
every check off a hostile byte still ends in a typed error at the
term's first touch, never in a wrong answer.
"""

import json
import os
import shutil
from pathlib import Path

import pytest

from repro import XMLDatabase
from repro.diskdb import load_database, save_database
from repro.index import storage
from repro.index.lazydisk import LazyColumnarIndex
from repro.reliability import DatabaseCorruptError, DatabaseFormatError
from repro.reliability.checksum import hex_digest
from tests.test_sharded import (QUERIES, SEMANTICS, assert_search_equal,
                                assert_topk_equal)


@pytest.fixture(scope="module")
def dirs(dblp_db, tmp_path_factory):
    root = tmp_path_factory.mktemp("open-path")
    paths = {None: str(root / "flat"), 2: str(root / "sharded")}
    for shards, path in paths.items():
        save_database(dblp_db, path, shards=shards, fsync=False)
    return paths


def _indexes(db):
    return [shard.columnar_index for shard in getattr(db, "shards", [db])]


class TestOneOpenPath:
    @pytest.mark.parametrize("lazy", (True, False))
    @pytest.mark.parametrize("verify", ("eager", "lazy", "off"))
    @pytest.mark.parametrize("shards", (None, 2))
    def test_answers_equal_the_memory_database(self, dblp_db, dirs, shards,
                                               verify, lazy):
        db = load_database(dirs[shards], verify=verify, lazy=lazy)
        for index in _indexes(db):
            assert type(index) is LazyColumnarIndex
            assert index.verify == verify
        for query in QUERIES:
            for semantics in SEMANTICS:
                assert_search_equal(db, dblp_db, query, semantics)
                assert_topk_equal(db, dblp_db, query, semantics)

    def test_lazy_postings_seqs_equal_memory(self, dblp_db, dirs):
        memory = dblp_db.columnar_index
        opened = load_database(dirs[None]).columnar_index
        assert opened.vocabulary == memory.vocabulary
        for term in memory.vocabulary[::7]:
            assert opened.term_postings(term).seqs == \
                memory.term_postings(term).seqs


class TestNothingWeaker:
    @pytest.fixture
    def copy(self, dirs, tmp_path):
        dst = str(tmp_path / "db")
        shutil.copytree(dirs[None], dst)
        return dst

    def test_flipped_byte_is_refused_at_a_default_open(self, copy):
        columnar = Path(copy, "columnar.bin")
        blob = bytearray(columnar.read_bytes())
        _algo, refs = storage.scan_container(bytes(blob))
        ref = refs[-1]      # nothing an open would parse on its own
        blob[ref.offset + ref.length // 2] ^= 0x01
        columnar.write_bytes(bytes(blob))
        with pytest.raises(DatabaseCorruptError) as err:
            load_database(copy)
        assert err.value.file == "columnar.bin"
        # Block by block, the same byte is found at the term's first
        # touch -- under "eager" too, were the digest to collide.
        db = load_database(copy, verify="lazy")
        with pytest.raises(DatabaseCorruptError) as err:
            db.columnar_index.term_postings(ref.term)
        assert err.value.term == ref.term

    def test_out_of_sync_files_are_refused_at_a_default_open(self, tmp_path):
        """A container written for another document, behind a manifest
        that vouches for its bytes: only the postings-against-node-table
        spot check can tell."""
        ours = str(tmp_path / "ours")
        theirs = str(tmp_path / "theirs")
        XMLDatabase.from_xml_text("<r><a>xml data</a></r>").save(ours)
        XMLDatabase.from_xml_text(
            "<r><x><y><z>xml data</z></y></x></r>").save(theirs)
        shutil.copy(os.path.join(theirs, "columnar.bin"),
                    os.path.join(ours, "columnar.bin"))
        meta_path = Path(ours, "meta.json")
        meta = json.loads(meta_path.read_text())
        meta["checksum"]["files"]["columnar.bin"] = hex_digest(
            Path(ours, "columnar.bin").read_bytes(),
            meta["checksum"]["algorithm"])
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(DatabaseFormatError, match="out of sync"):
            load_database(ours)
        with pytest.raises(DatabaseFormatError, match="out of sync"):
            load_database(ours, lazy=True)
