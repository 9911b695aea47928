"""The one on-disk format, end to end: what comes back from a saved
directory equals what went in, and what does not parse is a typed error.

One matrix -- {flat, 2 shards, 3 shards} x {eager, lazy} x verify
{eager, lazy, off} -- checked against the in-memory database for ELCA,
SLCA and top-K: on random trees (hypothesis), on a tree built so one
term's sequences have mixed lengths in an order that needs several
(length, run) pairs, and on a chain deep enough that a sequence length
no longer fits one byte -- `lengths - level` on a narrow unsigned view
would wrap there.  Then the container itself, flat and in two shards:

* **Equivalence** -- a load that survives a faulty disk answers every
  query bit for bit like the clean database (results, scores, witnesses
  and, flat, the section III-C ``per_level_plan``); warm decoded-column
  cache hits serve what the cold decodes did.
* **Zero-copy** -- loading never materializes the columnar file as
  ``bytes`` (the `reliability.io.COPY_STATS` seam records no copy for
  ``read-columnar``), and served payloads are read-only views.
* **Framing** -- payloads are 8-aligned and name registered codecs; a
  flipped payload byte, a truncated frame, a foreign magic and an
  unknown scheme id are typed errors, never a wrong answer.

Then the manifest: one version, and a reader that says so.  Hostile
bytes at large are `tests/test_corruption.py`; the codecs and their
selector are `tests/test_compression.py`.  The fault matrix honors
``REPRO_FAULT_SEED`` like `test_faults`.
"""

import json
import os
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro import XMLDatabase
from repro.diskdb import (_SUPPORTED_VERSIONS, FORMAT_VERSION,
                          load_database, save_database)
from repro.index import storage
from repro.index.compression import SCHEME_NAMES
from repro.index.lazydisk import LazyColumnarIndex
from repro.reliability import DatabaseCorruptError, DatabaseFormatError
from repro.reliability.io import COPY_STATS, MappedFile
from repro.xmltree.tree import Node, XMLTree
from tests.conftest import SMALL_XML
from tests.faults import FaultInjector, faulty_disk
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
            out.append(canon(db.search(list(terms), semantics)))
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
        payload, = storage.serialize_columnar_payloads([postings])
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
        assert storage._encode_lengths([[4] * 100_000, [], [1, 2, 2]]) \
            == [bytes([2, 4]) + bytes([0xa0, 0x8d, 0x06]), bytes([0]),
                bytes([4, 1, 1, 2, 2])]


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

    def test_save_rejects_unknown_version(self, small_db, tmp_path):
        """There is one format and no argument to pick another: neither
        the library call nor `XMLDatabase.save` takes a version."""
        with pytest.raises(TypeError):
            save_database(small_db, str(tmp_path / "nope"), format_version=9)
        with pytest.raises(TypeError):
            small_db.save(str(tmp_path / "nope"), format_version=3)
        assert not (tmp_path / "nope").exists()

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


# ---------------------------------------------------------------------------
# The container, flat and in two shards
# ---------------------------------------------------------------------------

SEED = int(os.environ.get("REPRO_FAULT_SEED", "0"))
#: Injector seeds per faulty load, ``SEED * INJECTOR_SEEDS`` onwards.
INJECTOR_SEEDS = 4

QUERIES = ["xml data", "keyword search", "data models", "xml",
           "relational data", "top data", "search processing",
           "keyword data xml", "title"]


def _build_db():
    return XMLDatabase.from_xml_text(SMALL_XML)


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """The same database saved flat and in two shards."""
    root = tmp_path_factory.mktemp("container")
    db = _build_db()
    paths = {"flat": str(root / "flat"), "sharded": str(root / "sharded")}
    save_database(db, paths["flat"])
    save_database(db, paths["sharded"], shards=2)
    return paths


def _transcript(db, plans=True):
    """Queries + top-K, exact to the last bit; with the section III-C
    plans when `plans` (a sharded facade rebuilds them per shard, so
    only its answers compare)."""
    out = []
    for query in QUERIES:
        results, stats = db.search(query, with_stats=True)
        top = db.search_topk(query, k=3)
        for answer, run in ((results, stats), (top, top.stats)):
            out.append(([(r.node.dewey, r.level, r.score, r.witness_scores)
                         for r in answer],
                        list(run.per_level_plan) if plans else None))
    return out


SHARD_FILES = {"flat": ["columnar.bin"],
               "sharded": [os.path.join(shard, "columnar.bin")
                           for shard in ("shard-00", "shard-01")]}


def _columnar_files(saved, layout):
    return [os.path.join(saved[layout], name)
            for name in SHARD_FILES[layout]]


def _read(path):
    with open(path, "rb") as handle:
        return handle.read()


class TestRoundTripMatrix:
    @pytest.mark.parametrize("layout", ("flat", "sharded"))
    def test_clean_load_answers_identically(self, saved, layout):
        """The baseline the fault matrix may skip: every clean load
        answers exactly like the in-memory database."""
        plans = layout == "flat"
        reference = _transcript(_build_db(), plans)
        for verify in ("eager", "lazy", "off"):
            db = load_database(saved[layout], verify=verify)
            assert _transcript(db, plans) == reference, (layout, verify)

    @pytest.mark.parametrize("layout", ("flat", "sharded"))
    def test_matrix_under_fault_injection(self, saved, layout,
                                          monkeypatch):
        """A faulty disk may fail a load with a typed error, but a load
        that *succeeds* answers exactly like the clean one.  Each load
        runs under `INJECTOR_SEEDS` injector seeds derived from
        ``REPRO_FAULT_SEED``, and under every seed some faulty load
        succeeds, so the comparison is always made."""
        plans = layout == "flat"
        reference = _transcript(_build_db(), plans)
        compared = []
        for verify in ("eager", "lazy"):
            for seed in range(SEED * INJECTOR_SEEDS,
                              (SEED + 1) * INJECTOR_SEEDS):
                faulty_disk(monkeypatch, FaultInjector(
                    error_rate=0.05, short_read_rate=0.05, seed=seed))
                try:
                    db = load_database(saved[layout], verify=verify)
                except (DatabaseCorruptError, DatabaseFormatError):
                    continue  # typed failure is an allowed outcome
                assert _transcript(db, plans) == reference, \
                    (f"fault-injected {layout} verify={verify} diverged "
                     f"(REPRO_FAULT_SEED={SEED}, injector seed {seed})")
                compared.append((verify, seed))
        assert compared, (f"no faulty {layout} load succeeded "
                          f"(REPRO_FAULT_SEED={SEED})")

    def test_repeat_queries_hit_decode_cache_identically(self, saved):
        """Warm decoded-column-cache hits serve the same answers as the
        cold decodes that populated them."""
        db = load_database(saved["flat"], verify="lazy")
        first = _transcript(db)
        assert _transcript(db) == first
        cache = db.columnar_index._decoded_cache
        assert cache is not None and cache.stats.hits > 0


class TestZeroCopy:
    def test_no_columnar_copy_on_load(self, saved):
        COPY_STATS.reset()
        db = load_database(saved["flat"], verify="lazy")
        for query in QUERIES:
            db.search(query)
        assert COPY_STATS.copies("read-columnar") == 0, \
            COPY_STATS.events
        # The node table is mapped too, and the document is not read.
        assert COPY_STATS.copies("read-document") == 0
        assert COPY_STATS.copies("read-dewey") == 0

    def test_columns_are_views_over_the_mmap(self, saved):
        index = load_database(saved["flat"], verify="lazy").columnar_index
        assert isinstance(index._backing, MappedFile)
        postings = index.term_postings(index.vocabulary[0])
        # Scores materialize straight off the mapping: read-only and
        # non-owning.  Lengths are stored run-length coded, so they are
        # a small decoded array -- int64, or `lengths - level` wraps.
        assert not postings.scores.flags.owndata
        assert not postings.scores.flags.writeable
        assert postings.lengths.dtype == np.int64
        for _scheme, payload in postings._level_payloads:
            assert isinstance(payload, np.ndarray)
            assert payload.dtype == np.uint8
            assert not payload.flags.owndata


class TestFraming:
    @pytest.mark.parametrize("layout", ("flat", "sharded"))
    def test_framing_is_aligned_and_schemes_valid(self, saved, layout):
        seen = set()
        for path in _columnar_files(saved, layout):
            blob = _read(path)
            assert blob[:4] == storage.MAGIC_COLUMNAR
            _algorithm, refs = storage.scan_container(blob)
            assert refs, "every container has terms"
            for ref in refs:
                # Every payload starts 8-aligned in the file, so the
                # wider in-payload regions (float64 scores, u64 offset
                # tables) are 8-aligned absolutely -- the np.frombuffer
                # precondition.
                assert ref.offset % 8 == 0
                lengths, scores, level_payloads = storage.parse_payload(
                    ref.term, blob[ref.offset: ref.offset + ref.length])
                assert len(lengths) == len(scores)
                assert len(level_payloads) == int(lengths.max())
                for scheme, _payload in level_payloads:
                    assert scheme in SCHEME_NAMES.values()
                    seen.add(scheme)
        assert seen, "at least one codec chosen"

    @pytest.mark.parametrize("layout", ("flat", "sharded"))
    def test_flipped_payload_byte_names_the_term(self, saved, layout,
                                                 tmp_path):
        """In the (last shard's) container: a default open refuses the
        file by its digest before any query, ``verify="lazy"`` the block
        on the term's first touch."""
        dst = str(tmp_path / "corrupt")
        shutil.copytree(saved[layout], dst)
        name = SHARD_FILES[layout][-1]
        columnar = os.path.join(dst, name)
        blob = bytearray(_read(columnar))
        _algo, refs = storage.scan_container(bytes(blob))
        ref = refs[len(refs) // 2]
        blob[ref.offset + ref.length // 2] ^= 0x40
        with open(columnar, "wb") as handle:
            handle.write(bytes(blob))
        with pytest.raises(DatabaseCorruptError) as err:
            load_database(dst)
        assert err.value.file == name
        db = load_database(dst, verify="lazy")
        with pytest.raises(DatabaseCorruptError) as err:
            for shard in getattr(db, "shards", [db]):
                index = shard.columnar_index
                for term in index.vocabulary:
                    index.term_postings(term).column(1)
        assert ref.term in str(err.value)

    @pytest.mark.parametrize("layout", ("flat", "sharded"))
    def test_truncated_container_is_typed(self, saved, layout):
        """Cut anywhere -- inside the file header, a frame, a term, a
        payload, or between two frames (the header's term count is then
        unmet) -- the scan is a typed error."""
        blob = _read(_columnar_files(saved, layout)[-1])
        for cut in list(range(4, 64)) + [len(blob) // 3, len(blob) // 2,
                                         len(blob) - 1]:
            with pytest.raises(DatabaseCorruptError):
                storage.scan_container(blob[:cut])

    @pytest.mark.parametrize("layout", ("flat", "sharded"))
    def test_wrong_magic_is_format_error(self, saved, layout):
        """Every reader, not only the scanner."""
        bad = b"NOPE" + _read(_columnar_files(saved, layout)[0])[4:]
        with pytest.raises(DatabaseFormatError):
            storage.scan_container(bad)
        with pytest.raises(DatabaseFormatError):
            LazyColumnarIndex(bad, _build_db().tree)

    def test_earlier_magics_are_refused(self, saved):
        """The earlier formats' magics are not this container's: a
        ``columnar.bin`` left over from one can never be mis-parsed."""
        blob = _read(_columnar_files(saved, "sharded")[0])
        for magic in (b"JDXC", b"JDXB", b"JDX3", b"JDX4"):
            with pytest.raises(DatabaseFormatError) as err:
                storage.scan_container(magic + blob[4:])
            assert repr(magic) in str(err.value)

    def test_default_score_mode_is_exact(self):
        """Saved with no score mode, every score comes back bit for
        bit."""
        index = _build_db().columnar_index
        loaded = LazyColumnarIndex(storage.serialize_columnar_index(index),
                                   index.nodes)
        assert loaded.vocabulary == index.vocabulary
        for term in loaded.vocabulary:
            assert np.array_equal(loaded.term_postings(term).scores,
                                  index.term_postings(term).scores)

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
