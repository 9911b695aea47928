"""Corruption fuzzing for the persistence layer (`repro.diskdb`).

Seed-fixed random truncations and single-byte flips of every file in a
saved database directory must surface as the typed
`DatabaseFormatError` / `DatabaseCorruptError` (or load fine, for
mutations that do not change meaning) -- never as a raw
IndexError/KeyError/struct/numpy exception, and never as silently
wrong results.
"""

import json
import os
import random
import struct

import pytest

from repro import XMLDatabase
from repro.diskdb import load_database, save_database
from repro.index import storage
from repro.index.compression import encode_for, encode_varints
from repro.reliability import DatabaseCorruptError, DatabaseFormatError
from tests.conftest import SMALL_XML

SEED = 0xC0FFEE

_DOCUMENT = "document.xml"
_META = "meta.json"
_COLUMNAR = "columnar.bin"
_DEWEY = "dewey.bin"
DATA_FILES = (_DOCUMENT, _COLUMNAR, _DEWEY)


@pytest.fixture(scope="module")
def clean_dir(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("corruption") / "db")
    db = XMLDatabase.from_xml_text(SMALL_XML)
    db.columnar_index
    db.inverted_index
    save_database(db, path)
    return path


class _Mutant:
    """Temporarily replace one file's bytes; always restores."""

    def __init__(self, directory: str, name: str):
        self.path = os.path.join(directory, name)
        with open(self.path, "rb") as fh:
            self.original = fh.read()

    def write(self, blob: bytes) -> None:
        with open(self.path, "wb") as fh:
            fh.write(blob)

    def restore(self) -> None:
        self.write(self.original)

    def __enter__(self) -> "_Mutant":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def _flip(blob: bytes, rng: random.Random) -> bytes:
    mutated = bytearray(blob)
    pos = rng.randrange(len(mutated))
    mutated[pos] ^= 1 << rng.randrange(8)
    return bytes(mutated)


class TestEagerVerification:
    """verify="eager" (the default): every damaged byte is fatal."""

    @pytest.mark.parametrize("name", DATA_FILES)
    def test_byte_flips_raise_typed_and_name_the_file(self, clean_dir, name):
        rng = random.Random(SEED)
        with _Mutant(clean_dir, name) as mutant:
            for _ in range(12):
                mutant.write(_flip(mutant.original, rng))
                with pytest.raises(DatabaseCorruptError) as err:
                    load_database(clean_dir)
                assert err.value.file == name

    @pytest.mark.parametrize("name", DATA_FILES)
    def test_truncations_raise_typed(self, clean_dir, name):
        rng = random.Random(SEED + 1)
        with _Mutant(clean_dir, name) as mutant:
            for _ in range(8):
                cut = rng.randrange(len(mutant.original))
                mutant.write(mutant.original[:cut])
                with pytest.raises(DatabaseCorruptError):
                    load_database(clean_dir)

    def test_missing_meta_is_format_error(self, clean_dir):
        with _Mutant(clean_dir, _META) as mutant:
            os.remove(mutant.path)
            with pytest.raises(DatabaseFormatError):
                load_database(clean_dir)

    def test_unknown_manifest_algorithm(self, clean_dir):
        with _Mutant(clean_dir, _META) as mutant:
            meta = json.loads(mutant.original)
            meta["checksum"]["algorithm"] = "md5"
            mutant.write(json.dumps(meta).encode("utf-8"))
            with pytest.raises(DatabaseFormatError, match="algorithm"):
                load_database(clean_dir)


class TestMetaFuzz:
    """meta.json is not self-checksummed (it is the root of trust), so
    a mutated manifest may still *load* -- but it must never escape as
    an untyped exception."""

    def test_byte_flips_are_typed_or_clean(self, clean_dir):
        rng = random.Random(SEED + 2)
        with _Mutant(clean_dir, _META) as mutant:
            for _ in range(40):
                mutant.write(_flip(mutant.original, rng))
                try:
                    load_database(clean_dir)
                except DatabaseFormatError:
                    pass  # typed (DatabaseCorruptError is a subclass)

    def test_truncations_are_typed(self, clean_dir):
        rng = random.Random(SEED + 3)
        with _Mutant(clean_dir, _META) as mutant:
            for _ in range(8):
                cut = rng.randrange(len(mutant.original))
                mutant.write(mutant.original[:cut])
                with pytest.raises(DatabaseFormatError):
                    load_database(clean_dir)


    @pytest.mark.parametrize("reshape", [
        lambda meta: [], lambda meta: None, lambda meta: 3,
        lambda meta: dict(meta, checksum=[]),
        lambda meta: dict(meta, checksum={"files": []}),
        lambda meta: dict(meta, checksum=dict(meta["checksum"],
                                              algorithm=[])),
        lambda meta: dict(meta, checksum=dict(
            meta["checksum"], files={_DEWEY: 3})),
        lambda meta: dict(meta, shards="x"),
        lambda meta: dict(meta, shards={"count": 1, "dirs": "shard-00"}),
        lambda meta: dict(meta, tokenizer=[]),
    ], ids=["list", "null", "number", "checksum-list", "files-list",
            "algorithm-list", "digest-number", "shards-string",
            "dirs-string", "tokenizer-list"])
    @pytest.mark.parametrize("verify", ["eager", "off"])
    def test_wrong_shapes_are_typed(self, clean_dir, reshape, verify):
        """JSON that parses but is not the manifest's shape."""
        with _Mutant(clean_dir, _META) as mutant:
            meta = json.loads(mutant.original)
            mutant.write(json.dumps(reshape(meta)).encode("utf-8"))
            with pytest.raises(DatabaseFormatError):
                load_database(clean_dir, verify=verify)


class TestLazyPerBlock:
    """verify="lazy": the columnar file's whole-file pass is skipped;
    per-block CRCs catch the damage on first touch and name the term."""

    def _refs(self, clean_dir):
        with open(os.path.join(clean_dir, _COLUMNAR), "rb") as fh:
            blob = fh.read()
        _algo, refs = storage.scan_container(blob)
        return blob, refs

    def test_payload_flip_names_the_term(self, clean_dir):
        blob, refs = self._refs(clean_dir)
        rng = random.Random(SEED + 4)
        victims = [r for r in refs if r.length > 0]
        assert victims
        with _Mutant(clean_dir, _COLUMNAR) as mutant:
            for victim in rng.sample(victims, min(5, len(victims))):
                mutated = bytearray(blob)
                pos = victim.offset + rng.randrange(victim.length)
                mutated[pos] ^= 1 << rng.randrange(8)
                mutant.write(bytes(mutated))
                db = load_database(clean_dir, lazy=True, verify="lazy")
                with pytest.raises(DatabaseCorruptError) as err:
                    db.columnar_index.term_postings(victim.term)
                assert err.value.term == victim.term
                assert err.value.file == _COLUMNAR

    def test_undamaged_blocks_still_serve(self, clean_dir):
        blob, refs = self._refs(clean_dir)
        victims = [r for r in refs if r.length > 0]
        victim = victims[0]
        intact = [r.term for r in victims[1:]]
        assert intact
        mutated = bytearray(blob)
        mutated[victim.offset] ^= 0x01
        with _Mutant(clean_dir, _COLUMNAR) as mutant:
            mutant.write(bytes(mutated))
            db = load_database(clean_dir, lazy=True, verify="lazy")
            for term in intact:
                assert db.columnar_index.term_postings(term) is not None
            with pytest.raises(DatabaseCorruptError):
                db.columnar_index.term_postings(victim.term)

    def test_framing_flips_are_typed_when_touched(self, clean_dir):
        # Flips in the container framing (lengths, CRCs, magic, pad)
        # land before any payload parse; they must also stay typed.
        blob, refs = self._refs(clean_dir)
        rng = random.Random(SEED + 5)
        payload_bytes = set()
        for ref in refs:
            payload_bytes.update(range(ref.offset, ref.offset + ref.length))
        framing = [i for i in range(len(blob)) if i not in payload_bytes]
        with _Mutant(clean_dir, _COLUMNAR) as mutant:
            for _ in range(10):
                mutated = bytearray(blob)
                pos = rng.choice(framing)
                mutated[pos] ^= 1 << rng.randrange(8)
                mutant.write(bytes(mutated))
                try:
                    db = load_database(clean_dir, lazy=True, verify="lazy")
                    for term in db.columnar_index.vocabulary:
                        db.columnar_index.term_postings(term)
                except DatabaseFormatError:
                    pass  # typed; a term-name flip may instead rename a
                    # block (lazy mode trusts the framing -- documented)


class TestVerifyOff:
    """verify="off" waives the digests, not the typed-error guarantee:
    parse failures still surface as `DatabaseCorruptError`."""

    @pytest.mark.parametrize("name", (_COLUMNAR, _DEWEY))
    def test_garbage_after_magic_is_typed(self, clean_dir, name):
        rng = random.Random(SEED + 6)
        with _Mutant(clean_dir, name) as mutant:
            garbage = mutant.original[:5] + bytes(
                rng.randrange(256) for _ in range(64))
            mutant.write(garbage)
            with pytest.raises(DatabaseFormatError):
                load_database(clean_dir, verify="off")

    @pytest.mark.parametrize("name", (_COLUMNAR, _DEWEY))
    def test_flips_never_escape_untyped(self, clean_dir, name):
        rng = random.Random(SEED + 7)
        with _Mutant(clean_dir, name) as mutant:
            for _ in range(12):
                mutant.write(_flip(mutant.original, rng))
                try:
                    load_database(clean_dir, verify="off")
                except DatabaseFormatError:
                    pass


@pytest.mark.parametrize("hostile", ("empty-run", "repeated-value"))
def test_hostile_rle_runs_are_typed_with_checks_off(tmp_path, hostile):
    """An RLE column whose runs still cover its rows but hold a run of
    no values, or a run repeating its predecessor's value, would alias
    a neighbouring run once the runs are searched.  Past the checksum
    (``verify="off"``) the query that reads it gets
    `DatabaseCorruptError` for the term."""
    path = str(tmp_path / "db")
    save_database(XMLDatabase.generate_dblp(seed=7, n_papers=100), path,
                  fsync=False)
    with open(os.path.join(path, _COLUMNAR), "rb") as fh:
        blob = bytearray(fh.read())
    _algo, refs = storage.scan_container(bytes(blob))
    ref, stream, offset = next(_one_byte_rle_columns(blob, refs))
    # [count, runs, delta0, count0, delta1, count1, ...], a byte each
    if hostile == "empty-run":
        blob[offset + 3] = stream[3] + stream[5]
        blob[offset + 5] = 0
    else:
        blob[offset + 4] = 0
    with open(os.path.join(path, _COLUMNAR), "wb") as fh:
        fh.write(bytes(blob))
    db = load_database(path, verify="off")
    with pytest.raises(DatabaseCorruptError) as err:
        db.search(ref.term)
    assert err.value.term == ref.term


def _one_byte_rle_columns(blob, refs):
    """``(ref, stream, offset)`` of every RLE column of two runs or more
    whose varints are a byte each and whose first two runs total under
    128 rows: `stream` its decoded ints, `offset` where it starts in
    `blob`."""
    from repro.index.compression import decode_varints

    for ref in refs:
        payload = bytes(blob[ref.offset: ref.offset + ref.length])
        _lengths, _scores, levels = storage.parse_payload(ref.term, payload)
        for level, (scheme, column) in enumerate(levels):
            stream = decode_varints(column).tolist()
            if scheme == "rle" and stream[1] >= 2 and max(stream) < 128 \
                    and stream[3] + stream[5] < 128:
                offset = struct.unpack_from(
                    "<Q", payload, storage._PAYLOAD_HEADER.size + 8 * level)
                yield ref, stream, ref.offset + offset[0]


class TestContainerFuzz:
    """`columnar.bin` with the checksums out of the way (``verify="off"``,
    or the block re-sealed): hostile bytes must come back as a typed
    error -- from the scanner, the payload parser or a column decode --
    never an IndexError, a numpy error or an allocation the file cannot
    vouch for, and within a time bound."""

    TIME_BOUND_S = 20.0

    @staticmethod
    def _touch_everything(db):
        index = db.columnar_index
        for term in index.vocabulary:
            postings = index.term_postings(term)
            for level in range(1, postings.max_len + 1):
                postings.column(level)
        db.search("xml data")
        db.search_topk("keyword search", k=3)

    @pytest.mark.parametrize("lazy", (True, False))
    def test_byte_flips_are_typed_or_clean(self, clean_dir, lazy):
        import time

        rng = random.Random(SEED + 20)
        start = time.perf_counter()
        with _Mutant(clean_dir, _COLUMNAR) as mutant:
            for _ in range(150):
                mutant.write(_flip(mutant.original, rng))
                try:
                    self._touch_everything(load_database(
                        clean_dir, lazy=lazy, verify="off"))
                except DatabaseFormatError:
                    pass    # typed; a flipped posting may also just be
                    # a different, well-formed posting -- no checksum
        assert time.perf_counter() - start < self.TIME_BOUND_S

    @pytest.mark.parametrize("lazy", (True, False))
    def test_truncations_are_typed(self, clean_dir, lazy):
        rng = random.Random(SEED + 21)
        with _Mutant(clean_dir, _COLUMNAR) as mutant:
            for _ in range(25):
                cut = rng.randrange(len(mutant.original))
                mutant.write(mutant.original[:cut])
                with pytest.raises(DatabaseFormatError):
                    self._touch_everything(load_database(
                        clean_dir, lazy=lazy, verify="off"))

    def test_absurd_frame_fields(self, clean_dir):
        """n_terms, term_len and payload_len far past the file."""
        import struct
        import time

        with open(os.path.join(clean_dir, _COLUMNAR), "rb") as fh:
            blob = fh.read()
        first_frame = storage._FILE_HEADER.size
        start = time.perf_counter()
        for offset, fmt in ((8, "<Q"),                  # n_terms
                            (first_frame, "<I"),        # term_len
                            (first_frame + 4, "<Q")):   # payload_len
            for value in (2 ** 62, 2 ** 40, 2 ** 31, len(blob) + 1):
                if value >= 2 ** (8 * struct.calcsize(fmt)):
                    continue
                mutated = bytearray(blob)
                struct.pack_into(fmt, mutated, offset, value)
                with pytest.raises(DatabaseCorruptError):
                    storage.scan_container(bytes(mutated))
        assert time.perf_counter() - start < self.TIME_BOUND_S

    def test_absurd_payload_fields(self, clean_dir):
        """Every header field and table entry of a term's payload set
        to values the payload cannot hold; the parser (reached past the
        checksum, as after a collision) must refuse each one."""
        import struct
        import time

        with open(os.path.join(clean_dir, _COLUMNAR), "rb") as fh:
            blob = fh.read()
        _algo, refs = storage.scan_container(blob)
        ref = max(refs, key=lambda r: r.length)
        payload = blob[ref.offset: ref.offset + ref.length]
        lengths, _scores, levels = storage.parse_payload(ref.term, payload)
        n_seqs, max_len = len(lengths), len(levels)
        header = storage._PAYLOAD_HEADER.size
        fields = [(0, "<Q"), (8, "<I"), (12, "<I"), (16, "<I"),
                  (20, "<I"), (24, "<Q")]
        fields += [(header + 8 * i, "<Q") for i in range(2 * max_len)]
        absurd = (2 ** 62, 2 ** 40, 2 ** 31, len(payload) + 1,
                  n_seqs + 1, max_len + 1, 7)
        start = time.perf_counter()
        refused = 0
        for offset, fmt in fields:
            for value in absurd:
                if value >= 2 ** (8 * struct.calcsize(fmt)):
                    continue
                mutated = bytearray(payload)
                struct.pack_into(fmt, mutated, offset, value)
                if bytes(mutated) == payload:
                    continue
                try:
                    got = storage.parse_payload(ref.term, bytes(mutated))
                    # A level offset moved inside the payload still
                    # parses; the column it now points at must not
                    # decode to the right number of values silently.
                    from repro.index.lazydisk import LazyColumnarPostings

                    postings = LazyColumnarPostings(ref.term, got[0],
                                                    got[2], got[1])
                    for level in range(1, postings.max_len + 1):
                        postings.column(level)
                except DatabaseCorruptError as err:
                    assert err.term == ref.term
                    refused += 1
        assert refused > 5 * len(fields)
        assert time.perf_counter() - start < self.TIME_BOUND_S

    @pytest.mark.parametrize("scheme,payload", [
        ("rle", bytes([3, 1, 5, 2])),                 # runs cover 2 of 3
        ("rle", bytes([3, 1, 5, 4])),                 # runs cover 4 of 3
        ("rle", encode_varints([3, 2, 1, 2 ** 63,     # 3 modulo 2**64
                                1, 2 ** 63 + 3])),
        ("rle", encode_varints(                       # 2 modulo 2**64,
            [2, 5] + [1, 2 ** 62] * 4 + [1, 2])),     # each run an int64
        ("delta", encode_varints([3, 128, 1, 1, 1, 9])),   # trailing value
        ("varint", encode_varints([3, 1, 2, 3, 4])),       # trailing value
        ("for", encode_for([1, 2, 3]) + b"\0"),             # trailing byte
        ("for", bytes([255, 255, 255, 255, 8, 0, 0, 0])),  # 2**29 blocks
    ], ids=["rle-short", "rle-past", "rle-wrap", "rle-wrap-int64",
            "delta-trailing", "varint-trailing", "for-trailing",
            "for-no-tables"])
    def test_column_header_disagrees_with_body(self, scheme, payload):
        """A small column (under 256 B, where scalar loops that never
        checked a header once decoded) whose header disagrees with its
        body is refused for its term -- never decoded short, long, or
        from uninitialized memory."""
        from repro.index.lazydisk import LazyColumnarPostings

        postings = LazyColumnarPostings("victim", [1, 1, 1],
                                        [(scheme, payload)], [0.0] * 3)
        with pytest.raises(DatabaseCorruptError) as err:
            postings.column(1)
        assert err.value.term == "victim"

    @pytest.mark.parametrize("scheme,payload", [
        # One run of 2**29 rows: the runs agree with their own header.
        ("rle", encode_varints([2 ** 29, 1, 5, 2 ** 29])),
        # 26 bytes: two width-0 blocks of 2**28 rows, no packed bytes.
        ("for", (2 ** 29).to_bytes(4, "little")
         + (2 ** 28).to_bytes(4, "little") + bytes(18)),
    ], ids=["rle-one-huge-run", "for-width-0-blocks"])
    def test_hostile_row_count_allocates_nothing(self, scheme, payload):
        """A column consistent with a hostile header (past the checksum,
        as with ``verify="off"``) is refused for its term before the
        decoder allocates the 4 GiB the header asks for: its count is
        checked against the sequences the term's lengths give the
        level."""
        import tracemalloc

        from repro.index.lazydisk import LazyColumnarPostings

        postings = LazyColumnarPostings("victim", [1, 1, 1],
                                        [(scheme, payload)], [0.0] * 3)
        tracemalloc.start()
        try:
            with pytest.raises(DatabaseCorruptError) as err:
                postings.column(1)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert err.value.term == "victim"
        assert peak < 1 << 20

    def test_unknown_scheme_id(self, clean_dir):
        """An id outside `SCHEME_IDS` is corruption -- not, as the v3
        reader had it, another name for delta."""
        from repro.index.compression import SCHEME_NAMES

        with open(os.path.join(clean_dir, _COLUMNAR), "rb") as fh:
            blob = bytearray(fh.read())
        _algo, refs = storage.scan_container(bytes(blob))
        ref = refs[0]
        _l, _s, levels = storage.parse_payload(
            ref.term, bytes(blob[ref.offset: ref.offset + ref.length]))
        schemes_off = (ref.offset + storage._PAYLOAD_HEADER.size
                       + 16 * len(levels))
        for scheme_id in range(len(SCHEME_NAMES), 256, 17):
            blob[schemes_off] = scheme_id
            with _Mutant(clean_dir, _COLUMNAR) as mutant:
                mutant.write(bytes(blob))
                # Nothing checks at the open (``verify="off"``); the
                # term's first touch parses its block and refuses it.
                db = load_database(clean_dir, verify="off")
                with pytest.raises(DatabaseCorruptError) as err:
                    db.columnar_index.term_postings(ref.term)
                assert err.value.term == ref.term

    def test_score_mode_other_than_exact(self, clean_dir):
        """The writer stores exact scores only: a payload whose score
        mode says otherwise is corruption naming its term, at the
        parser and at a query's first touch."""
        import struct

        with open(os.path.join(clean_dir, _COLUMNAR), "rb") as fh:
            blob = bytearray(fh.read())
        _algo, refs = storage.scan_container(bytes(blob))
        ref = refs[0]
        for mode in (storage.SCORES_NONE, storage.SCORES_QUANTIZED, 3,
                     2 ** 31):
            struct.pack_into("<I", blob, ref.offset + 12, mode)
            payload = bytes(blob[ref.offset: ref.offset + ref.length])
            with pytest.raises(DatabaseCorruptError) as err:
                storage.parse_payload(ref.term, payload)
            assert err.value.term == ref.term
            assert "score mode" in str(err.value)
            with _Mutant(clean_dir, _COLUMNAR) as mutant:
                mutant.write(bytes(blob))
                db = load_database(clean_dir, verify="off")
                with pytest.raises(DatabaseCorruptError) as err:
                    db.columnar_index.term_postings(ref.term)
                assert err.value.term == ref.term

    def test_hostile_length_runs(self):
        """The (length, run) pairs are decoded before anything is
        allocated for them: runs that do not add up to n_seqs, an odd
        stream, a length outside 1..max_len and a run far past n_seqs
        are refused outright."""
        from repro.index.compression import encode_varint_column

        good, = storage._encode_lengths([[2, 2, 2, 3, 3, 1]])
        assert storage._decode_lengths(good, 6, 3).tolist() \
            == [2, 2, 2, 3, 3, 1]
        for pairs, n_seqs, max_len in (
                ([2, 3, 3, 2], 6, 3),           # runs cover 5, not 6
                ([2, 3, 3], 3, 3),              # odd stream
                ([0, 3], 3, 3),                 # length 0
                ([4, 3], 3, 3),                 # length past max_len
                ([2, 3], 3, 3),                 # max_len never reached
                ([3, 2 ** 62], 3, 3),           # absurd run
                ([3, 2 ** 63, 3, 2 ** 63 + 3], 3, 3)):  # sums to 3 mod 2^64
            with pytest.raises(ValueError):
                storage._decode_lengths(encode_varint_column(pairs),
                                        n_seqs, max_len)


class TestNodeTableFuzz:
    """`dewey.bin` is the node table: hostile bytes must come back as a
    typed error naming it -- at open for the header and the section
    directory, on first touch for section checksums and the structural
    invariants -- never an IndexError, a wrong node or a walk that does
    not end, and within a time bound."""

    TIME_BOUND_S = 20.0

    @staticmethod
    def _exercise(db):
        """Touch every column of the table the engines and nodes read."""
        out = []
        for algorithm in ("join", "stack"):
            for r in db.search("xml data", algorithm=algorithm):
                node = r.node
                out.append((algorithm, node.dewey, node.jdewey, node.tag,
                            node.text, node.level, round(r.score, 12),
                            [c.dewey for c in node.children],
                            node.parent.dewey if node.parent else None))
        return out

    @pytest.fixture(scope="class")
    def clean_answers(self, clean_dir):
        return self._exercise(load_database(clean_dir, lazy=True,
                                            verify="lazy"))

    def _check(self, clean_dir, clean_answers, verify):
        try:
            db = load_database(clean_dir, lazy=True, verify=verify)
            got = self._exercise(db)
        except DatabaseCorruptError as err:
            assert err.file == _DEWEY
        except DatabaseFormatError:
            pass    # a flipped magic or algorithm id
        else:
            if verify == "lazy":
                # Only pad bytes are outside every checksum.
                assert got == clean_answers

    @pytest.mark.parametrize("verify", ("lazy", "off"))
    def test_byte_flips(self, clean_dir, clean_answers, verify):
        import time

        rng = random.Random(SEED + 8)
        start = time.perf_counter()
        with _Mutant(clean_dir, _DEWEY) as mutant:
            for _ in range(150):
                mutant.write(_flip(mutant.original, rng))
                self._check(clean_dir, clean_answers, verify)
        assert time.perf_counter() - start < self.TIME_BOUND_S

    @pytest.mark.parametrize("verify", ("lazy", "off"))
    def test_truncations_are_caught_at_open(self, clean_dir, verify):
        rng = random.Random(SEED + 9)
        with _Mutant(clean_dir, _DEWEY) as mutant:
            for _ in range(25):
                cut = rng.randrange(len(mutant.original))
                mutant.write(mutant.original[:cut])
                with pytest.raises(DatabaseFormatError):
                    load_database(clean_dir, lazy=True, verify=verify)

    def test_absurd_counts_with_a_valid_header_checksum(self, clean_dir):
        import struct
        import time

        from repro.reliability.checksum import ALGORITHM_NAMES, checksum
        from repro.xmltree import nodetable

        rng = random.Random(SEED + 10)
        crc_at = nodetable._PREAMBLE - nodetable._HEADER_CRC.size
        start = time.perf_counter()
        with _Mutant(clean_dir, _DEWEY) as mutant:
            algorithm = ALGORITHM_NAMES[mutant.original[4]]
            for _ in range(60):
                blob = bytearray(mutant.original)
                # Overwrite one count / offset / length field of the
                # header or the section directory with a huge value,
                # then re-seal the header so only the range checks
                # stand between the reader and the field.
                field = rng.randrange(8, crc_at - 8, 4)
                struct.pack_into("<Q", blob, field,
                                 rng.choice((2 ** 62, 2 ** 40, 2 ** 31,
                                             len(blob) + 1)))
                struct.pack_into("<I", blob, crc_at,
                                 checksum(bytes(blob[:crc_at]), algorithm))
                mutant.write(bytes(blob))
                for verify in ("lazy", "off"):
                    try:
                        db = load_database(clean_dir, lazy=True,
                                           verify=verify)
                        self._exercise(db)
                    except DatabaseCorruptError as err:
                        assert err.file == _DEWEY
                    except DatabaseFormatError:
                        pass    # node count no longer the manifest's
        assert time.perf_counter() - start < self.TIME_BOUND_S

    @pytest.mark.parametrize("column,row,value", [
        ("parent", 3, 3),           # its own parent: a walk would not end
        ("parent", 3, 7),           # a parent after its child
        ("parent", 3, 10_000),      # off the end
        ("parent", 0, 2),           # the root has a parent
        ("level", 4, 9),            # not its parent's level plus one
        ("ordinal", 2, 0),
        ("tag_id", 2, 999),
        ("tag_id", 2, -1),
        ("text_off", 2, 10 ** 9),   # outside document.xml
        ("text_off", 2, 2 ** 63 - 1),   # ... where off + len would wrap
        ("text_len", 2, -5),
        ("level_rows", 1, 0),       # filed twice / under the wrong level
        ("level_rows", 1, 10_000),
        ("level_starts", 1, 0),
        ("number", 5, 1),           # a level's numbers no longer rise
    ])
    def test_out_of_range_references_with_valid_checksums(
            self, clean_dir, column, row, value):
        import numpy as np

        from repro.xmltree.nodetable import NodeTable

        with open(os.path.join(clean_dir, _DEWEY), "rb") as fh:
            table = NodeTable.from_buffer(fh.read())
        table._load()
        columns = {name: np.array(getattr(table, name))
                   for name in ("parent", "level", "number", "ordinal",
                                "tag_id", "text_off", "text_len",
                                "level_starts", "level_rows")}
        columns[column][row] = value
        text_off, text_len = columns.pop("text_off"), columns.pop("text_len")
        for name, array in columns.items():
            setattr(table, name, array)
        forged = table.to_bytes(text_off, text_len, table._doc_bytes)
        with _Mutant(clean_dir, _DEWEY) as mutant:
            mutant.write(forged)
            for verify in ("lazy", "off"):
                db = load_database(clean_dir, lazy=True, verify=verify)
                with pytest.raises(DatabaseCorruptError) as err:
                    self._exercise(db)
                assert err.value.file == _DEWEY
                assert "inconsistent" in str(err.value)
