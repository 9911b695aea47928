"""Tests for directory persistence (`repro.diskdb`)."""

import json
import os

import pytest

from repro import XMLDatabase
from repro.diskdb import (DatabaseFormatError, load_database,
                          save_database)
from repro.scoring.ranking import DampingFunction, RankingModel


@pytest.fixture
def saved(tmp_path, small_db):
    path = str(tmp_path / "db")
    small_db.save(path)
    return path, small_db


class TestRoundtrip:
    def test_files_written(self, saved):
        path, _ = saved
        for name in ("document.xml", "meta.json", "columnar.bin",
                     "dewey.bin"):
            assert os.path.exists(os.path.join(path, name))

    def test_search_results_identical(self, saved):
        path, original = saved
        loaded = XMLDatabase.open(path)
        for semantics in ("elca", "slca"):
            for algorithm in ("join", "stack", "index"):
                a = original.search("xml data", semantics=semantics,
                                    algorithm=algorithm)
                b = loaded.search("xml data", semantics=semantics,
                                  algorithm=algorithm)
                assert [(r.node.dewey, round(r.score, 12)) for r in a] == \
                    [(r.node.dewey, round(r.score, 12)) for r in b]

    def test_topk_identical(self, saved):
        path, original = saved
        loaded = load_database(path)
        for algorithm in ("topk-join", "rdil", "hybrid"):
            a = original.search_topk("xml data", 3, algorithm=algorithm)
            b = loaded.search_topk("xml data", 3, algorithm=algorithm)
            assert [round(r.score, 12) for r in a] == \
                [round(r.score, 12) for r in b]

    def test_no_retokenization_on_open(self, saved, monkeypatch):
        path, _ = saved
        from repro.index.tokenizer import Tokenizer

        def boom(self, text):
            raise AssertionError("tokenizer ran during load")

        monkeypatch.setattr(Tokenizer, "term_frequencies", boom)
        loaded = load_database(path)
        assert loaded.document_frequency("xml") > 0

    def test_document_frequency_preserved(self, saved):
        path, original = saved
        loaded = load_database(path)
        for term in ("xml", "data", "keyword"):
            assert loaded.document_frequency(term) == \
                original.document_frequency(term)

    def test_metadata_contents(self, saved):
        path, original = saved
        with open(os.path.join(path, "meta.json")) as f:
            meta = json.load(f)
        assert meta["format_version"] == 5
        assert meta["n_nodes"] == len(original.tree)
        assert meta["damping_base"] == pytest.approx(0.9)
        manifest = meta["checksum"]
        assert manifest["algorithm"] in ("crc32", "crc32c")
        for name in ("document.xml", "columnar.bin", "dewey.bin"):
            blob = open(os.path.join(path, name), "rb").read()
            from repro.reliability.checksum import hex_digest
            assert manifest["files"][name] == hex_digest(
                blob, manifest["algorithm"])

    def test_custom_damping_restored(self, tmp_path):
        db = XMLDatabase.from_xml_text(
            "<a><b>xml data</b><c>xml</c></a>",
            ranking=RankingModel(damping=DampingFunction(0.5)))
        path = str(tmp_path / "db")
        db.save(path)
        loaded = load_database(path)
        assert loaded.ranking.damping.base == pytest.approx(0.5)

    def test_explicit_ranking_wins(self, saved):
        path, _ = saved
        custom = RankingModel(damping=DampingFunction(0.5))
        loaded = load_database(path, ranking=custom)
        assert loaded.ranking is custom

    def test_generated_corpus_roundtrip(self, tmp_path, dblp_db):
        path = str(tmp_path / "dblp")
        save_database(dblp_db, path)
        loaded = load_database(path)
        a = dblp_db.search(["alpha", "beta"])
        b = loaded.search(["alpha", "beta"])
        assert [(r.node.dewey, round(r.score, 12)) for r in a] == \
            [(r.node.dewey, round(r.score, 12)) for r in b]

    def test_save_overwrites(self, saved):
        path, original = saved
        original.save(path)  # no error, still loadable
        assert load_database(path).document_frequency("xml") > 0


class TestFailureModes:
    def test_missing_meta(self, tmp_path):
        with pytest.raises(DatabaseFormatError):
            load_database(str(tmp_path))

    def test_version_mismatch(self, saved):
        path, _ = saved
        meta_path = os.path.join(path, "meta.json")
        with open(meta_path) as f:
            meta = json.load(f)
        meta["format_version"] = 99
        with open(meta_path, "w") as f:
            json.dump(meta, f)
        with pytest.raises(DatabaseFormatError):
            load_database(path)

    def test_edited_document_detected(self, saved):
        path, _ = saved
        doc_path = os.path.join(path, "document.xml")
        with open(doc_path) as f:
            text = f.read()
        # Remove an element: node counts diverge from the metadata.
        text = text.replace("<title>XML basics</title>", "")
        with open(doc_path, "w") as f:
            f.write(text)
        with pytest.raises(DatabaseFormatError):
            load_database(path)

    def test_truncated_columnar_blob(self, saved):
        path, _ = saved
        blob_path = os.path.join(path, "columnar.bin")
        with open(blob_path, "rb") as f:
            blob = f.read()
        with open(blob_path, "wb") as f:
            f.write(blob[: len(blob) // 2])
        with pytest.raises(Exception):
            load_database(path)

    def test_corrupt_magic(self, saved):
        path, _ = saved
        blob_path = os.path.join(path, "dewey.bin")
        with open(blob_path, "r+b") as f:
            f.write(b"XXXX")
        with pytest.raises(ValueError):
            load_database(path)


class _Crash(RuntimeError):
    """Stands in for the process dying mid-save."""


def _crash_at(stage):
    def hook(s):
        if s == stage:
            raise _Crash(stage)
    return hook


class TestAtomicSave:
    """Kill the save at each commit stage; the directory must either
    still load as the old database or fail loudly with a typed error --
    never load as a silent mixture."""

    NEW_XML = "<lib><entry>freshly saved corpus</entry></lib>"

    @pytest.mark.parametrize("stage", ["tmp-written", "data-replaced"])
    def test_fresh_dir_crash_before_manifest(self, tmp_path, small_db,
                                             monkeypatch, stage):
        import repro.diskdb as diskdb

        monkeypatch.setattr(diskdb, "_fault_hook", _crash_at(stage))
        path = str(tmp_path / "db")
        with pytest.raises(_Crash):
            save_database(small_db, path)
        # No manifest landed, so the directory is not (yet) a database.
        with pytest.raises(DatabaseFormatError):
            load_database(path)
        # The staging directory never survives, even on a crash.
        assert not [name for name in os.listdir(tmp_path)
                    if ".tmp-" in name]

    def test_fresh_dir_crash_after_manifest(self, tmp_path, small_db,
                                            monkeypatch):
        import repro.diskdb as diskdb

        monkeypatch.setattr(diskdb, "_fault_hook",
                            _crash_at("meta-replaced"))
        path = str(tmp_path / "db")
        with pytest.raises(_Crash):
            save_database(small_db, path)
        # The manifest's arrival is the commit point: the save took.
        assert load_database(path).document_frequency("xml") > 0

    def test_overwrite_crash_keeps_old_database(self, tmp_path, small_db,
                                                monkeypatch):
        import repro.diskdb as diskdb

        path = str(tmp_path / "db")
        small_db.save(path)
        new_db = XMLDatabase.from_xml_text(self.NEW_XML)
        monkeypatch.setattr(diskdb, "_fault_hook",
                            _crash_at("tmp-written"))
        with pytest.raises(_Crash):
            save_database(new_db, path)
        loaded = load_database(path)
        assert loaded.document_frequency("xml") == \
            small_db.document_frequency("xml")
        assert loaded.document_frequency("freshly") == 0

    def test_overwrite_crash_between_data_and_manifest_is_detected(
            self, tmp_path, small_db, monkeypatch):
        import repro.diskdb as diskdb
        from repro.reliability import DatabaseCorruptError

        path = str(tmp_path / "db")
        small_db.save(path)
        new_db = XMLDatabase.from_xml_text(self.NEW_XML)
        monkeypatch.setattr(diskdb, "_fault_hook",
                            _crash_at("data-replaced"))
        with pytest.raises(_Crash):
            save_database(new_db, path)
        # New data files under the old manifest: the stale digests
        # disagree, so the mixture is rejected, not absorbed.
        with pytest.raises(DatabaseCorruptError):
            load_database(path)

    def test_overwrite_crash_after_manifest_is_new_database(
            self, tmp_path, small_db, monkeypatch):
        import repro.diskdb as diskdb

        path = str(tmp_path / "db")
        small_db.save(path)
        new_db = XMLDatabase.from_xml_text(self.NEW_XML)
        monkeypatch.setattr(diskdb, "_fault_hook",
                            _crash_at("meta-replaced"))
        with pytest.raises(_Crash):
            save_database(new_db, path)
        assert load_database(path).document_frequency("freshly") > 0


class TestLazyAndVerifyModes:
    def test_lazy_load_matches_eager(self, saved):
        path, original = saved
        lazy = load_database(path, lazy=True, verify="lazy")
        a = original.search("xml data")
        b = lazy.search("xml data")
        assert [(r.node.dewey, round(r.score, 12)) for r in a] == \
            [(r.node.dewey, round(r.score, 12)) for r in b]

    def test_verify_off_loads(self, saved):
        path, _ = saved
        assert load_database(path, verify="off").search("xml data")

    def test_unknown_verify_mode_rejected(self, saved):
        path, _ = saved
        with pytest.raises(ValueError, match="verify"):
            load_database(path, verify="paranoid")


class TestLegacyV1:
    """Directories of the four earlier formats are refused, typed, with
    the way back; nothing of theirs is parsed."""

    def _write_old(self, db, path, version=1):
        os.makedirs(path, exist_ok=True)
        blobs = {
            "document.xml": db.tree.to_xml().encode("utf-8"),
            "columnar.bin": b"JDXC\x00",
            "dewey.bin": b"DWIL\x00",
        }
        meta = {
            "format_version": version,
            "jdewey_gap": db.encoder.gap,
            "n_docs": db.columnar_index.n_docs,
            "damping_base": db.ranking.damping.base,
            "tokenizer": {
                "stopwords": sorted(db.tokenizer.stopwords),
                "min_length": db.tokenizer.min_length,
            },
            "n_nodes": len(db.tree),
        }
        for name, blob in blobs.items():
            with open(os.path.join(path, name), "wb") as fh:
                fh.write(blob)
        with open(os.path.join(path, "meta.json"), "w") as fh:
            json.dump(meta, fh)

    @pytest.mark.parametrize("version", [1, 2, 3, 4])
    def test_earlier_format_is_refused_with_the_way_back(
            self, tmp_path, small_db, version):
        path = str(tmp_path / "olddb")
        self._write_old(small_db, path, version)
        for lazy in (False, True):
            with pytest.raises(DatabaseFormatError) as err:
                load_database(path, lazy=lazy)
            message = str(err.value)
            assert f"format version {version}" in message
            assert "repro index " + os.path.join(path, "document.xml") \
                in message
        # The way back works: the directory's own document rebuilds it.
        from repro.cli import main

        rebuilt = str(tmp_path / "newdb")
        assert main(["index", os.path.join(path, "document.xml"),
                     rebuilt]) == 0
        a = small_db.search("xml data")
        b = load_database(rebuilt).search("xml data")
        assert [(r.node.dewey, round(r.score, 12)) for r in a] == \
            [(r.node.dewey, round(r.score, 12)) for r in b]

    def test_v1_corruption_still_typed(self, tmp_path, small_db):
        path = str(tmp_path / "v1db")
        self._write_old(small_db, path)
        with open(os.path.join(path, "columnar.bin"), "wb") as fh:
            fh.write(b"\xff" * 7)
        with pytest.raises(DatabaseFormatError):
            load_database(path)
        with pytest.raises(DatabaseFormatError):
            load_database(path, verify="off", lazy=True)
