"""The columnar container on a sharded directory, and its codec bytes.

This file keeps the name it had when per-column codec selection was
"format v4"; the selector is part of the only format now
(`tests/test_format_v3.py` covers the flat layout and the zero-copy
contract, `tests/test_container.py` the answer matrix).  Claims under
test:

* **Equivalence** -- a sharded save answers every query like the
  in-memory database under eager and lazy loads, scalar decoders and a
  fault-injected disk, and warm decoded-column-cache hits serve what the
  cold decodes did.
* **Integrity** -- every recorded scheme id names a codec; an unknown id,
  an earlier format's magic, a flipped payload byte and a truncated frame
  are typed errors, never a wrong answer.
* **Score modes** -- the container round-trips exact, quantized and
  absent scores.

The fault matrix honors ``REPRO_FAULT_SEED`` like `test_faults`.
"""

import os

import numpy as np
import pytest

from repro.diskdb import load_database, save_database
from repro.index import compression, storage
from repro.index.compression import SCHEME_NAMES
from repro.index.lazydisk import LazyColumnarIndex
from repro.reliability import (DatabaseCorruptError, DatabaseFormatError,
                               FaultInjector)
from tests.test_format_v3 import QUERIES, SEED, _build_db, _transcript

@pytest.fixture(scope="module")
def dirs(tmp_path_factory):
    """The same database saved flat and in two shards."""
    root = tmp_path_factory.mktemp("container-sharded")
    db = _build_db()
    flat, sharded = str(root / "flat"), str(root / "sharded")
    save_database(db, flat)
    save_database(db, sharded, shards=2)
    return {"flat": flat, "sharded": sharded}


def _results_only(db):
    """Result tuples without plans -- the sharded facade rebuilds plans
    per shard, so only the answers are comparable across layouts."""
    out = []
    for query in QUERIES:
        results = db.search(query, use_cache=False)
        out.append([(r.node.dewey, r.level, r.score) for r in results])
        top = db.search_topk(query, k=3)
        out.append([(r.node.dewey, r.level, r.score) for r in top])
    return out


def _shard_blob(dirs, shard="shard-00"):
    with open(os.path.join(dirs["sharded"], shard, "columnar.bin"),
              "rb") as handle:
        return handle.read()


class TestRoundTripMatrix:
    def test_sharded_v4_answers_identically(self, dirs):
        reference = _results_only(_build_db())
        for lazy in (False, True):
            db = load_database(dirs["sharded"], lazy=lazy,
                               verify="lazy" if lazy else "eager")
            assert _results_only(db) == reference

    def test_matrix_under_fault_injection(self, dirs):
        """A faulty disk may fail a sharded load with a typed error,
        but a load that *succeeds* answers like the clean one."""
        reference = _results_only(_build_db())
        for lazy in (False, True):
            injector = FaultInjector(error_rate=0.05,
                                     short_read_rate=0.05, seed=SEED)
            try:
                db = load_database(
                    dirs["sharded"], lazy=lazy,
                    verify="lazy" if lazy else "eager",
                    injector=injector)
            except (DatabaseCorruptError, DatabaseFormatError):
                continue  # typed failure is an allowed outcome
            assert _results_only(db) == reference, \
                (f"fault-injected sharded lazy={lazy} diverged "
                 f"(REPRO_FAULT_SEED={SEED})")

    def test_vectorized_off_matches(self, dirs, monkeypatch):
        """Scalar reference decoders, sharded layout."""
        reference = _results_only(_build_db())
        monkeypatch.setattr(compression, "VECTORIZED_MIN_BYTES", 1 << 62)
        for lazy in (False, True):
            db = load_database(dirs["sharded"], lazy=lazy,
                               verify="lazy" if lazy else "eager")
            assert _results_only(db) == reference

    def test_repeat_queries_hit_decode_cache_identically(self, dirs):
        """Warm decoded-column-cache hits serve the same answers as the
        cold decodes that populated them."""
        db = load_database(dirs["flat"], lazy=True, verify="lazy",
                           result_cache_size=0)
        first = _transcript(db)
        second = _transcript(db)
        assert first == second
        cache = db.columnar_index._decoded_cache
        assert cache is not None and cache.stats.hits > 0


class TestV4Container:
    def test_framing_is_aligned_and_schemes_valid(self, dirs):
        seen = set()
        for shard in ("shard-00", "shard-01"):
            blob = _shard_blob(dirs, shard)
            assert blob[:4] == storage.MAGIC_COLUMNAR
            _algorithm, refs = storage.scan_container(blob)
            assert refs, "every shard has terms"
            for ref in refs:
                assert ref.offset % 8 == 0
                lengths, scores, level_payloads = storage.parse_payload(
                    ref.term, blob[ref.offset: ref.offset + ref.length])
                assert len(lengths) == len(scores)
                assert len(level_payloads) == int(lengths.max())
                for scheme, _payload in level_payloads:
                    assert scheme in SCHEME_NAMES.values()
                    seen.add(scheme)
        assert seen, "at least one codec chosen"

    def test_flipped_payload_byte_names_the_term(self, dirs, tmp_path):
        """In one shard's container: a default open refuses the file
        by its digest before any query, ``verify="lazy"`` the block on
        the term's first touch."""
        import shutil

        dst = str(tmp_path / "corrupt")
        shutil.copytree(dirs["sharded"], dst)
        columnar = os.path.join(dst, "shard-01", "columnar.bin")
        blob = bytearray(open(columnar, "rb").read())
        _algo, refs = storage.scan_container(bytes(blob))
        ref = refs[len(refs) // 2]
        blob[ref.offset + ref.length // 2] ^= 0x40
        open(columnar, "wb").write(bytes(blob))
        with pytest.raises(DatabaseCorruptError) as err:
            load_database(dst)
        assert err.value.file == os.path.join("shard-01", "columnar.bin")
        db = load_database(dst, verify="lazy")
        with pytest.raises(DatabaseCorruptError) as err:
            for shard in db.shards:
                index = shard.columnar_index
                for term in index.vocabulary:
                    index.term_postings(term).column(1)
        assert ref.term in str(err.value)

    def test_truncated_container_is_typed(self, dirs):
        """Cut anywhere -- inside the file header, a frame, a term, a
        payload, or between two frames (the header's term count is then
        unmet) -- the scan is a typed error."""
        blob = _shard_blob(dirs)
        for cut in list(range(4, 64)) + [len(blob) // 3, len(blob) - 1]:
            with pytest.raises(DatabaseCorruptError):
                storage.scan_container(blob[:cut])

    def test_wrong_magic_is_format_error(self, dirs):
        """Every reader, not only the scanner."""
        bad = b"NOPE" + _shard_blob(dirs)[4:]
        with pytest.raises(DatabaseFormatError):
            storage.scan_container(bad)
        with pytest.raises(DatabaseFormatError):
            LazyColumnarIndex(bad, _build_db().tree)

    def test_v3_magic_rejected_by_v4_scan(self, dirs):
        """The earlier formats' magics are not this container's: a
        ``columnar.bin`` left over from one can never be mis-parsed."""
        blob = _shard_blob(dirs)
        for magic in (b"JDXC", b"JDXB", b"JDX3", b"JDX4"):
            with pytest.raises(DatabaseFormatError) as err:
                storage.scan_container(magic + blob[4:])
            assert repr(magic) in str(err.value)

    def test_eager_v4_deserializer_roundtrips(self):
        """Exact, quantized and absent scores."""
        index = _build_db().columnar_index
        for mode, tolerance in ((storage.SCORES_EXACT, 0.0),
                                (storage.SCORES_QUANTIZED, 1 / 256),
                                (storage.SCORES_NONE, None)):
            blob = storage.serialize_columnar_index(index, score_mode=mode)
            loaded = LazyColumnarIndex(blob, index.nodes)
            assert loaded.vocabulary == index.vocabulary
            for term in loaded.vocabulary:
                postings = loaded.term_postings(term)
                original = index.term_postings(term)
                assert postings.seqs == original.seqs
                if tolerance is None:
                    assert not np.any(postings.scores)
                else:
                    assert np.all(np.abs(postings.scores - original.scores)
                                  <= tolerance)

    def test_unknown_scheme_id_is_typed(self):
        """A payload naming a scheme id outside the registry parses to
        a typed corruption error, not a crash or a wrong answer."""
        index = _build_db().columnar_index
        blob = bytearray(storage.serialize_columnar_index(index))
        _algo, refs = storage.scan_container(bytes(blob))
        ref = refs[0]
        _l, _s, level_payloads = storage.parse_payload(
            ref.term, bytes(blob[ref.offset: ref.offset + ref.length]))
        # The scheme-id array sits after the fixed payload header and
        # the u64 level offset/length tables.
        schemes_off = (ref.offset + storage._PAYLOAD_HEADER.size
                       + 16 * len(level_payloads))
        for scheme_id in (len(SCHEME_NAMES), 250):   # no such scheme
            blob[schemes_off] = scheme_id
            with pytest.raises(DatabaseCorruptError) as err:
                storage.parse_payload(
                    ref.term,
                    bytes(blob[ref.offset: ref.offset + ref.length]))
            assert "scheme" in str(err.value)
