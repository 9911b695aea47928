"""The columnar container on a flat directory: equivalence under fault
injection and scalar decoding, the zero-copy contract, and framing
integrity.

This file keeps the name it had when the aligned container was "format
v3", one of four; it is the only format now (`tests/test_container.py`
holds the answer matrix, `tests/test_format_v4.py` the sharded layout and
the codec bytes).  Three claims under test:

* **Equivalence** -- a saved database answers every query byte-identically
  (results, scores, witness tuples, and the section III-C
  ``per_level_plan``) under eager and lazy loads, on a faulty disk and
  with the scalar reference decoders.
* **Zero-copy** -- loading never materializes the columnar file as
  ``bytes``: the `reliability.io.COPY_STATS` seam must record no copy
  event for the ``read-columnar`` op, and the score and payload arrays
  served by the lazy index must be read-only views.
* **Integrity** -- a flipped payload byte surfaces as
  `DatabaseCorruptError` naming the keyword, framing damage as a typed
  error, never a wrong answer.

The fault matrix honors ``REPRO_FAULT_SEED`` like `test_faults`.
"""

import os

import numpy as np
import pytest

from repro import XMLDatabase
from repro.diskdb import load_database, save_database
from repro.index import compression, storage
from repro.index.lazydisk import LazyColumnarIndex
from repro.reliability import (DatabaseCorruptError, DatabaseFormatError,
                               FaultInjector)
from repro.reliability.io import COPY_STATS, MappedFile, map_bytes
from tests.conftest import SMALL_XML

SEED = int(os.environ.get("REPRO_FAULT_SEED", "0"))

QUERIES = ["xml data", "keyword search", "data models", "xml",
           "relational data", "top data", "search processing",
           "keyword data xml", "title"]


def _build_db():
    return XMLDatabase.from_xml_text(SMALL_XML)


@pytest.fixture(scope="module")
def saved_dir(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("container") / "db")
    save_database(_build_db(), path)
    return path


def _transcript(db):
    """Queries + top-K + plans, exact to the last bit."""
    out = []
    for query in QUERIES:
        results, stats = db.search(query, use_cache=False,
                                   with_stats=True)
        out.append(("search", query,
                    [(r.node.dewey, r.level, r.score, r.witness_scores)
                     for r in results],
                    list(stats.per_level_plan)))
        top = db.search_topk(query, k=3)
        out.append(("topk", query,
                    [(r.node.dewey, r.level, r.score, r.witness_scores)
                     for r in top],
                    list(top.stats.per_level_plan)))
    return out


def _columnar_blob(path):
    with open(os.path.join(path, "columnar.bin"), "rb") as handle:
        return handle.read()


class TestRoundTripMatrix:
    def test_matrix_under_fault_injection(self, saved_dir):
        """A faulty disk may fail a load with a typed error, but a
        load that *succeeds* answers exactly like the clean one."""
        reference = _transcript(_build_db())
        for lazy in (False, True):
            injector = FaultInjector(error_rate=0.05,
                                     short_read_rate=0.05, seed=SEED)
            try:
                db = load_database(
                    saved_dir, lazy=lazy,
                    verify="lazy" if lazy else "eager",
                    injector=injector)
            except (DatabaseCorruptError, DatabaseFormatError):
                continue  # typed failure is an allowed outcome
            assert _transcript(db) == reference, \
                (f"fault-injected lazy={lazy} diverged "
                 f"(REPRO_FAULT_SEED={SEED})")

    def test_vectorized_off_matches(self, saved_dir, monkeypatch):
        """The scalar reference decoders answer like the vectorized
        ones: with the crossover past every payload, every column of
        the load decodes in the scalar loop."""
        reference = _transcript(_build_db())
        monkeypatch.setattr(compression, "VECTORIZED_MIN_BYTES", 1 << 62)
        for lazy in (False, True):
            db = load_database(saved_dir, lazy=lazy,
                               verify="lazy" if lazy else "eager")
            assert _transcript(db) == reference


class TestZeroCopy:
    def test_no_columnar_copy_on_v3_load(self, saved_dir):
        COPY_STATS.reset()
        db = load_database(saved_dir, lazy=True, verify="lazy")
        for query in QUERIES:
            db.search(query, use_cache=False)
        assert COPY_STATS.copies("read-columnar") == 0, \
            COPY_STATS.events
        # The node table is mapped too, and the document is not read.
        assert COPY_STATS.copies("read-document") == 0
        assert COPY_STATS.copies("read-dewey") == 0

    def test_columns_are_views_over_the_mmap(self, saved_dir):
        db = load_database(saved_dir, lazy=True, verify="lazy")
        index = db.columnar_index
        backing = index._backing
        assert isinstance(backing, MappedFile)
        term = index.vocabulary[0]
        postings = index.term_postings(term)
        # Scores materialize straight off the mapping: read-only and
        # non-owning.  Lengths are stored run-length coded, so they are
        # a small decoded array -- int64, or `lengths - level` wraps.
        assert not postings.scores.flags.owndata
        assert not postings.scores.flags.writeable
        assert postings.lengths.dtype == np.int64
        for scheme, payload in postings._level_payloads:
            assert isinstance(payload, np.ndarray)
            assert payload.dtype == np.uint8
            assert not payload.flags.owndata

    def test_injector_downgrades_map_to_copy(self, tmp_path):
        path = tmp_path / "blob.bin"
        path.write_bytes(b"x" * 1024)
        COPY_STATS.reset()
        mapped = map_bytes(str(path), op="probe")
        assert isinstance(mapped, MappedFile)
        assert COPY_STATS.copies("probe") == 0
        data = map_bytes(str(path), injector=FaultInjector(seed=SEED),
                         op="probe")
        assert isinstance(data, bytes)
        assert COPY_STATS.copies("probe") == 1


class TestV3Container:
    def test_framing_is_aligned(self, saved_dir):
        blob = _columnar_blob(saved_dir)
        _algorithm, refs = storage.scan_container(blob)
        assert refs, "container has terms"
        for ref in refs:
            # Every payload starts 8-aligned in the file, so the wider
            # in-payload regions (float64 scores, u64 offset tables)
            # are 8-aligned absolutely -- the np.frombuffer
            # precondition.
            assert ref.offset % 8 == 0
            lengths, scores, level_payloads = storage.parse_payload(
                ref.term, blob[ref.offset: ref.offset + ref.length])
            assert len(lengths) == len(scores)
            assert len(level_payloads) == (int(lengths.max())
                                           if len(lengths) else 0)

    def test_flipped_payload_byte_names_the_term(self, saved_dir,
                                                 tmp_path):
        import shutil

        dst = str(tmp_path / "corrupt")
        shutil.copytree(saved_dir, dst)
        columnar = os.path.join(dst, "columnar.bin")
        blob = bytearray(_columnar_blob(dst))
        _algo, refs = storage.scan_container(bytes(blob))
        ref = refs[len(refs) // 2]
        blob[ref.offset + ref.length // 2] ^= 0x40
        open(columnar, "wb").write(bytes(blob))
        db = load_database(dst, lazy=True, verify="lazy")
        with pytest.raises(DatabaseCorruptError) as err:
            for query in QUERIES:
                db.search(query, use_cache=False)
            # Force every term if the queries dodged the victim.
            for term in db.columnar_index.vocabulary:
                db.columnar_index.term_postings(term).column(1)
        assert ref.term in str(err.value)

    def test_truncated_container_is_typed(self, saved_dir):
        blob = _columnar_blob(saved_dir)
        with pytest.raises(DatabaseCorruptError):
            storage.scan_container(blob[: len(blob) // 2])

    def test_wrong_magic_is_format_error(self):
        with pytest.raises(DatabaseFormatError):
            storage.scan_container(b"NOPE" + b"\x00" * 32)

    def test_eager_v3_deserializer_roundtrips(self):
        db = _build_db()
        index = db.columnar_index
        blob = storage.serialize_columnar_index(index)
        loaded = LazyColumnarIndex(blob, index.nodes)
        assert loaded.vocabulary == index.vocabulary
        for term in loaded.vocabulary:
            postings = loaded.term_postings(term)
            original = index.term_postings(term)
            assert postings.seqs == original.seqs
            assert np.allclose(postings.scores, original.scores)

    def test_save_rejects_unknown_version(self, tmp_path):
        """There is one format and no argument to pick another: neither
        the library call nor `XMLDatabase.save` takes a version."""
        db = _build_db()
        with pytest.raises(TypeError):
            save_database(db, str(tmp_path / "nope"), format_version=9)
        with pytest.raises(TypeError):
            db.save(str(tmp_path / "nope"), format_version=3)
        assert not (tmp_path / "nope").exists()
