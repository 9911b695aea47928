"""Column compression (`repro.index.compression`): the four codecs, the
selector and its size gate.

Each codec has one decoder; ``tests/reference_codecs.py`` keeps the
scalar loops as the differential reference, and the library decoders
must match them bit for bit on every shape the encoders produce --
empty columns, width-0 blocks, ragged final blocks, values past 2^32 --
at payload sizes on both sides of 256 B.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import XMLDatabase
from repro.index import compression as cmp
from tests import reference_codecs as ref

sorted_columns = st.lists(st.integers(0, 10_000), min_size=0,
                          max_size=300).map(sorted)

#: Each codec's value decoder: what a column that is not sorted (which
#: `decompress_column` refuses) decodes through.
VALUE_DECODERS = {"delta": cmp.decode_delta_blocks,
                  "varint": cmp.decode_varint_column,
                  "for": cmp.decode_for}


def column_values(scheme, payload):
    """A sorted column's values, expanded from `decompress_column`'s
    runs."""
    return cmp.run_values(*cmp.decompress_column(scheme, payload)).tolist()


def assert_runs_equal(got, want):
    for got_part, want_part in zip(got, want):
        np.testing.assert_array_equal(got_part, want_part)


def rle_payload(deltas, counts):
    """An RLE payload with exactly these (value delta, count) pairs."""
    pairs = [x for pair in zip(deltas, counts) for x in pair]
    return cmp.encode_varints([sum(counts), len(counts), *pairs])


class TestVarints:
    @pytest.mark.parametrize("value", [0, 1, 127, 128, 300, 2 ** 21, 2 ** 40])
    def test_roundtrip_single(self, value):
        out = bytearray()
        cmp.write_varint(out, value)
        decoded, pos = cmp.read_varint(bytes(out), 0)
        assert decoded == value
        assert pos == len(out) == cmp.varint_size(value)

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            cmp.write_varint(bytearray(), -1)

    def test_encoder_refuses_what_the_decoder_refuses(self):
        """`VARINT_MAX` round-trips; one past it, or a negative value,
        is refused when written, not when read back."""
        for encode in (cmp.encode_varints, cmp.encode_varint_column):
            blob = encode([cmp.VARINT_MAX])
            assert cmp.decode_varints(blob).tolist()[-1] == cmp.VARINT_MAX
            for bad in ([cmp.VARINT_MAX + 1], [2 ** 70], [-1],
                        [1, cmp.VARINT_MAX + 1]):
                with pytest.raises(ValueError):
                    encode(bad)
        top = np.array([0, cmp.VARINT_MAX], dtype=np.uint64)
        assert cmp.decode_varints(cmp.encode_varints(top)).tolist() \
            == [0, cmp.VARINT_MAX]
        with pytest.raises(ValueError):
            cmp.encode_varints(np.array([-1, 3], dtype=np.int64))

    @given(st.lists(st.integers(0, 2 ** 32), max_size=50))
    def test_roundtrip_stream(self, values):
        assert cmp.decode_varints(cmp.encode_varints(values)).tolist() \
            == values


class TestDeltaBlocks:
    def test_roundtrip_basic(self):
        values = [3, 3, 5, 9, 9, 120, 4000]
        decoded = cmp.decode_delta_blocks(cmp.encode_delta_blocks(values))
        assert list(decoded) == values

    def test_roundtrip_empty(self):
        assert list(cmp.decode_delta_blocks(
            cmp.encode_delta_blocks([]))) == []

    def test_block_boundaries(self):
        values = list(range(0, 1000, 3))
        data = cmp.encode_delta_blocks(values, block_size=16)
        assert list(cmp.decode_delta_blocks(data)) == values

    def test_unsorted_raises(self):
        with pytest.raises(ValueError):
            cmp.encode_delta_blocks([5, 3])

    def test_smaller_than_fixed_width_for_dense_columns(self):
        values = list(range(10_000, 20_000))
        data = cmp.encode_delta_blocks(values)
        assert len(data) < cmp.uncompressed_size(values)

    @given(sorted_columns)
    def test_roundtrip_property(self, values):
        decoded = cmp.decode_delta_blocks(cmp.encode_delta_blocks(values))
        assert list(decoded) == values


class TestRLE:
    def test_runs_of(self):
        distinct, run_starts = cmp.runs_of([2, 2, 2, 4, 7, 7])
        assert distinct.tolist() == [2, 4, 7]
        assert run_starts.tolist() == [0, 3, 4, 6]

    def test_runs_of_empty(self):
        distinct, run_starts = cmp.runs_of([])
        assert distinct.tolist() == [] and run_starts.tolist() == [0]

    def test_roundtrip_basic(self):
        values = [1, 1, 1, 1, 8, 8, 9]
        assert cmp.run_values(*cmp.decode_rle(cmp.encode_rle(values))) \
            .tolist() == values

    def test_roundtrip_empty(self):
        assert cmp.run_values(*cmp.decode_rle(cmp.encode_rle([]))) \
            .tolist() == []

    def test_encoding_is_the_triples(self):
        """Header (count, runs), then (value delta, count) per run."""
        assert cmp.encode_rle([2, 2, 2, 4, 7, 7]) \
            == cmp.encode_varints([6, 3, 2, 3, 2, 1, 3, 2])

    def test_unsorted_raises(self):
        with pytest.raises(ValueError):
            cmp.encode_rle([5, 3])

    def test_duplicates_compress_well(self):
        values = [7] * 10_000
        assert len(cmp.encode_rle(values)) < 16

    @given(sorted_columns)
    def test_roundtrip_property(self, values):
        assert cmp.run_values(*cmp.decode_rle(cmp.encode_rle(values))) \
            .tolist() == values

    @given(sorted_columns.filter(len), st.data())
    def test_hostile_runs_refused(self, values, data):
        """A run of no values, or one whose value does not step up from
        its predecessor's, would alias a neighbouring run in a search
        over ``distinct``: both are refused, and the honest payload
        next to them decodes."""
        distinct, run_starts = cmp.runs_of(values)
        deltas = np.diff(distinct, prepend=0).tolist()
        counts = np.diff(run_starts).tolist()
        assert_runs_equal(cmp.decompress_column(
            "rle", rle_payload(deltas, counts)), (distinct, run_starts))
        at = data.draw(st.integers(0, len(counts)))
        empty_run = rle_payload(
            deltas[:at] + [data.draw(st.integers(0, 9))] + deltas[at:],
            counts[:at] + [0] + counts[at:])
        at = data.draw(st.integers(1, len(counts)))
        repeated = rle_payload(deltas[:at] + [0] + deltas[at:],
                               counts[:at] + [data.draw(st.integers(1, 9))]
                               + counts[at:])
        for payload in (empty_run, repeated):
            with pytest.raises(ValueError):
                cmp.decompress_column("rle", payload)
            with pytest.raises(ValueError):
                cmp.decode_rle(payload)


def paper_scheme(values):
    """The paper's two-scheme rule (what Table I sizes)."""
    return cmp.choose_codec(values, cmp.PAPER_CODECS)[0]


class TestSchemeSelection:
    def test_low_cardinality_picks_rle(self):
        assert paper_scheme([1, 1, 1, 2, 2, 2]) == cmp.SCHEME_RLE

    def test_high_cardinality_picks_delta(self):
        assert paper_scheme(list(range(100))) == cmp.SCHEME_DELTA

    def test_empty_column(self):
        assert paper_scheme([]) == cmp.SCHEME_RLE

    @given(sorted_columns)
    def test_compress_roundtrip_property(self, values):
        for codecs in (cmp.CODECS, cmp.PAPER_CODECS):
            scheme, data = cmp.choose_codec(values, codecs)
            assert scheme in codecs
            assert column_values(scheme, data) == values

    def test_unknown_scheme_raises(self):
        with pytest.raises(ValueError):
            cmp.decompress_column("nope", b"")

    def test_numpy_input_accepted(self):
        values = np.asarray([1, 2, 2, 3], dtype=np.int64)
        scheme, data = cmp.choose_codec(values)
        assert column_values(scheme, data) == [1, 2, 2, 3]


class TestVectorizedVarints:
    """The numpy stream decoder against the scalar reference: equal
    bit for bit up to VARINT_MAX, and both refuse what is not a
    stream."""

    @given(st.lists(st.integers(0, 2 ** 32), max_size=80))
    def test_matches_scalar(self, values):
        blob = cmp.encode_varints(values)
        assert cmp.decode_varints(blob).tolist() == \
            ref.decode_varints(blob) == values

    @pytest.mark.parametrize("value", [
        2 ** 32 - 1, 2 ** 32, 2 ** 32 + 1, 2 ** 40, 2 ** 56 - 3,
        2 ** 63, cmp.VARINT_MAX])
    def test_values_at_and_above_u32(self, value):
        # Decoded columns are uint64; everything up to 2**64-1 must
        # survive exactly.
        blob = cmp.encode_varints([1, value, 7])
        assert cmp.decode_varints(blob).tolist() == \
            ref.decode_varints(blob) == [1, value, 7]

    def test_beyond_uint64_rejected_by_both(self):
        out = bytearray()
        value = 2 ** 64         # one past VARINT_MAX
        while value >= 0x80:
            out.append((value & 0x7F) | 0x80)
            value >>= 7
        out.append(value)
        for decode in (cmp.decode_varints, ref.decode_varints):
            with pytest.raises(ValueError):
                decode(bytes(out))

    def test_ten_byte_overflow_rejected(self):
        # Ten bytes whose final byte pushes past 2**64-1: a valid
        # *length* but an invalid *value*.
        for decode in (cmp.decode_varints, ref.decode_varints):
            with pytest.raises(ValueError):
                decode(bytes([0xFF] * 9 + [0x02]))

    def test_truncated_stream_rejected_by_both(self):
        blob = cmp.encode_varints([300])[:-1]  # continuation bit dangles
        for decode in (cmp.decode_varints, ref.decode_varints):
            with pytest.raises(ValueError):
                decode(blob)

    def test_empty_stream(self):
        assert cmp.decode_varints(b"").tolist() == []

    def test_memoryview_and_ndarray_inputs(self):
        values = [0, 127, 128, 2 ** 21, 2 ** 40]
        blob = cmp.encode_varints(values)
        for view in (memoryview(blob),
                     np.frombuffer(blob, dtype=np.uint8)):
            assert cmp.decode_varints(view).tolist() == values


class TestVectorizedColumnDecoders:
    """Every column decoder against its scalar reference."""

    @given(sorted_columns)
    def test_delta_differential(self, values):
        blob = cmp.encode_delta_blocks(values)
        assert cmp.decode_delta_blocks(blob).tolist() \
            == ref.decode_delta_blocks(blob).tolist() == values

    @given(sorted_columns)
    def test_rle_differential(self, values):
        blob = cmp.encode_rle(values)
        assert ref.decode_rle(blob).tolist() == values
        assert_runs_equal(cmp.decode_rle(blob), ref.runs(values))

    @pytest.mark.parametrize("block_size", [1, 2, 16, 128])
    def test_delta_block_boundaries(self, block_size):
        values = sorted(x * 37 % 10_000 for x in range(500))
        blob = cmp.encode_delta_blocks(values, block_size=block_size)
        assert cmp.decode_delta_blocks(blob).tolist() == values

    def test_delta_large_gaps_near_uint64(self):
        # Per-block cumsum wraps modulo 2**64; reconstruction must
        # still be exact for values that fit int64.
        values = [0, 2 ** 62, 2 ** 62 + 5, 2 ** 63 - 1]
        blob = cmp.encode_delta_blocks(values, block_size=2)
        assert cmp.decode_delta_blocks(blob).tolist() == values

    @given(st.integers(0, 500), st.sampled_from([2 ** 4, 2 ** 20, 2 ** 40]),
           st.booleans(), st.integers(0, 2 ** 32 - 1))
    def test_decompress_column_matches_reference(self, n, high, ordered,
                                                 seed):
        """Every codec that can encode the column, at payloads from a
        few bytes to a few KiB -- about half of them past the 256 B
        where a size crossover once split columns between two
        decoders: a sorted column's runs are the runs of the reference
        decoder's values; one that is not sorted has no runs to hand
        out and is refused, and its codec's value decoder matches the
        reference."""
        values = np.random.default_rng(seed).integers(0, high, size=n)
        if ordered:
            values = np.sort(values)
        for codec in cmp.CODECS:
            try:
                scheme, blob = cmp.choose_codec(values, (codec,))
            except ValueError:
                continue        # rle and delta need the column sorted
            decoded = ref.decompress_column(scheme, blob)
            np.testing.assert_array_equal(decoded, values)
            if not np.any(values[1:] < values[:-1]):
                assert_runs_equal(cmp.decompress_column(scheme, blob),
                                  ref.runs(decoded))
                continue
            np.testing.assert_array_equal(
                VALUE_DECODERS[scheme](blob), decoded)
            with pytest.raises(ValueError):
                cmp.decompress_column(scheme, blob)


def roundtrip_for(values, block_size=cmp.DEFAULT_BLOCK_SIZE):
    blob = cmp.encode_for(np.asarray(values, dtype=np.int64),
                          block_size=block_size)
    decoded = cmp.decode_for(blob)
    np.testing.assert_array_equal(decoded, ref.decode_for(blob))
    np.testing.assert_array_equal(decoded,
                                  np.asarray(values, dtype=np.int64))
    return blob


class TestForCodec:
    def test_empty_column(self):
        roundtrip_for(np.empty(0, dtype=np.int64))

    def test_single_value_is_width_zero(self):
        """One value per block means delta 0 everywhere: the block
        payload is empty and the value rides entirely in the base."""
        blob = roundtrip_for([42])
        # header (8) + one base (8) + one width byte (1), no payload
        assert len(blob) == 17

    def test_constant_column_is_width_zero(self):
        values = [7] * 1000
        blob = roundtrip_for(values)
        n_blocks = -(-1000 // cmp.DEFAULT_BLOCK_SIZE)
        assert len(blob) == 8 + 8 * n_blocks + n_blocks

    def test_values_past_2_to_32(self):
        roundtrip_for([2**32, 2**32 + 1, 2**40, 2**40 + 1000])
        roundtrip_for([2**62, 2**62 + (1 << 35), 2**62 + 1])

    def test_mixed_width_blocks(self):
        rng = np.random.default_rng(3)
        narrow = rng.integers(0, 16, size=300)
        wide = rng.integers(2**33, 2**34, size=300)
        roundtrip_for(np.concatenate([narrow, wide]))

    def test_ragged_final_block(self):
        for block_size in (1, 3, 7, 128, 129):
            rng = np.random.default_rng(block_size)
            values = rng.integers(0, 2**20, size=block_size * 2 + 1)
            roundtrip_for(values, block_size=block_size)

    @pytest.mark.parametrize("bits", [1, 8, 25, 26, 57, 58, 63])
    def test_width_tier_boundaries(self, bits):
        """Widths straddling the uint32/uint64/tail decode tiers."""
        rng = np.random.default_rng(bits)
        values = rng.integers(0, 2**bits, size=500, dtype=np.uint64)
        roundtrip_for(values.astype(np.int64) & np.int64(2**62))
        roundtrip_for((values >> np.uint64(1)).astype(np.int64))

    def test_truncated_blob_is_value_error(self):
        blob = cmp.encode_for(np.arange(1000, dtype=np.int64))
        for cut in (2, 7, len(blob) // 2, len(blob) - 1):
            with pytest.raises(ValueError):
                cmp.decode_for(blob[:cut])

    def test_fuzz_parity(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            size = int(rng.integers(0, 3000))
            hi = int(rng.choice([2**8, 2**20, 2**34, 2**62]))
            values = rng.integers(0, hi, size=size)
            roundtrip_for(values)


class TestVarintColumn:
    def test_empty(self):
        blob = cmp.encode_varint_column(np.empty(0, dtype=np.int64))
        assert cmp.decode_varint_column(blob).size == 0

    def test_parity_and_large_values(self):
        rng = np.random.default_rng(5)
        values = rng.integers(0, 2**40, size=2000)
        blob = cmp.encode_varint_column(values)
        decoded = cmp.decode_varint_column(blob)
        np.testing.assert_array_equal(decoded,
                                      ref.decode_varint_column(blob))
        np.testing.assert_array_equal(decoded, values)

    def test_truncated_is_value_error(self):
        blob = cmp.encode_varint_column(np.arange(100, dtype=np.int64))
        with pytest.raises(ValueError):
            cmp.decode_varint_column(blob[: len(blob) // 2])


def _encodable(values, candidate):
    """`candidate`'s payload for `values`, or None if it cannot encode
    them (rle and delta demand sorted input)."""
    try:
        return cmp.choose_codec(values, codecs=(candidate,))[1]
    except ValueError:
        return None


class TestChooseCodec:
    def test_registry_is_bijective(self):
        assert set(cmp.SCHEME_IDS.values()) == set(cmp.SCHEME_NAMES.keys())
        for name, scheme_id in cmp.SCHEME_IDS.items():
            assert cmp.SCHEME_NAMES[scheme_id] == name
        assert set(cmp.CODECS) == set(cmp.SCHEME_IDS)
        assert set(cmp.PAPER_CODECS) == {"rle", "delta"}

    def test_picks_smallest(self):
        """One clear-cut column per decision-list branch: the pick is
        the smallest of the four there."""
        rng = np.random.default_rng(9)
        for values, expected in (
                (np.zeros(500, dtype=np.int64), "rle"),
                (np.sort(rng.integers(0, 10**6, size=500)), "delta"),
                (rng.integers(2**40, 2**40 + 100, size=500), "for"),
                (np.arange(2000, 3000, dtype=np.int64), "for"),
                (np.arange(5, dtype=np.int64), "varint")):
            scheme, payload = cmp.choose_codec(values)
            assert scheme == expected
            for candidate in cmp.CODECS:
                other = _encodable(values, candidate)
                assert other is None or len(payload) <= len(other)
            decoded = (column_values(scheme, payload) if scheme == "rle"
                       else VALUE_DECODERS[scheme](payload))
            np.testing.assert_array_equal(decoded, values)

    def test_within_one_percent_of_exhaustive_best(self):
        """The size gate: over every column of a seeded DBLP corpus the
        decision list's picks total within 1 % of encoding each column
        all four ways and keeping the smallest (the exhaustive loop the
        selector used to be, kept here as the reference)."""
        index = XMLDatabase.generate_dblp(seed=7,
                                          n_papers=400).columnar_index
        picked = best = 0
        for term in index.vocabulary:
            postings = index.term_postings(term)
            for level in range(1, postings.max_len + 1):
                values = postings.column(level).values
                scheme, payload = cmp.choose_codec(values)
                np.testing.assert_array_equal(
                    column_values(scheme, payload), values)
                picked += len(payload)
                best += min(len(blob) for blob in (
                    _encodable(values, c) for c in cmp.CODECS)
                    if blob is not None)
        assert best <= picked <= 1.01 * best, (picked, best)

    def test_paper_codecs_apply_the_paper_rule(self):
        """Restricted to rle/delta the selector is section III-D's rule:
        rle iff at most half the values start a run."""
        for values, expected in (([1, 1, 1, 2, 2, 2], "rle"),
                                 ([1, 1, 2, 2], "rle"),
                                 ([1, 1, 2, 3], "delta"),
                                 (list(range(100)), "delta"),
                                 ([7], "delta"),
                                 ([], "rle")):
            scheme, payload = cmp.choose_codec(values, cmp.PAPER_CODECS)
            assert scheme == expected, values
            assert column_values(scheme, payload) == values

    def test_unsorted_column_needs_for_or_varint(self):
        values = [9, 3, 7]
        scheme, payload = cmp.choose_codec(values)
        assert scheme in ("for", "varint")
        assert VALUE_DECODERS[scheme](payload).tolist() == values
        with pytest.raises(ValueError):
            cmp.choose_codec(values, cmp.PAPER_CODECS)
        # Runs of an unsorted column would alias in a search.
        with pytest.raises(ValueError):
            cmp.decompress_column(scheme, payload)

    def test_constant_column_prefers_rle(self):
        scheme, _ = cmp.choose_codec(np.full(10_000, 123, dtype=np.int64))
        assert scheme == "rle"

    def test_unknown_codec_is_value_error(self):
        with pytest.raises(ValueError):
            cmp.choose_codec(np.arange(4, dtype=np.int64),
                             codecs=("snappy",))

    def test_every_choice_decodes_scalar_and_vectorized(self):
        rng = np.random.default_rng(21)
        values = np.sort(rng.integers(0, 2**34, size=777))
        scheme, payload = cmp.choose_codec(values)
        assert_runs_equal(cmp.decompress_column(scheme, payload),
                          ref.runs(ref.decompress_column(scheme, payload)))
