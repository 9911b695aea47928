"""Tests for column compression (`repro.index.compression`)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.index import compression as cmp

sorted_columns = st.lists(st.integers(0, 10_000), min_size=0,
                          max_size=300).map(sorted)


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

    @given(st.lists(st.integers(0, 2 ** 32), max_size=50))
    def test_roundtrip_stream(self, values):
        assert cmp.decode_varints(cmp.encode_varints(values)) == values


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
        triples = cmp.runs_of([2, 2, 2, 4, 7, 7])
        assert triples == [(2, 0, 3), (4, 3, 1), (7, 4, 2)]

    def test_runs_of_empty(self):
        assert cmp.runs_of([]) == []

    def test_roundtrip_basic(self):
        values = [1, 1, 1, 1, 8, 8, 9]
        assert list(cmp.decode_rle(cmp.encode_rle(values))) == values

    def test_roundtrip_empty(self):
        assert list(cmp.decode_rle(cmp.encode_rle([]))) == []

    def test_unsorted_raises(self):
        with pytest.raises(ValueError):
            cmp.encode_rle([5, 3])

    def test_duplicates_compress_well(self):
        values = [7] * 10_000
        assert len(cmp.encode_rle(values)) < 16

    @given(sorted_columns)
    def test_roundtrip_property(self, values):
        assert list(cmp.decode_rle(cmp.encode_rle(values))) == values


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
            assert list(cmp.decompress_column(scheme, data)) == values

    def test_unknown_scheme_raises(self):
        with pytest.raises(ValueError):
            cmp.decompress_column("nope", b"")

    def test_numpy_input_accepted(self):
        values = np.asarray([1, 2, 2, 3], dtype=np.int64)
        scheme, data = cmp.choose_codec(values)
        assert list(cmp.decompress_column(scheme, data)) == [1, 2, 2, 3]


class TestVectorizedVarints:
    """The numpy batch decoder is differentially tested against the
    scalar reference and must agree bit-for-bit up to VARINT_MAX."""

    @given(st.lists(st.integers(0, 2 ** 32), max_size=80))
    def test_matches_scalar(self, values):
        blob = cmp.encode_varints(values)
        assert cmp.decode_varints_vectorized(blob).tolist() == \
            cmp.decode_varints(blob) == values

    @pytest.mark.parametrize("value", [
        2 ** 32 - 1, 2 ** 32, 2 ** 32 + 1, 2 ** 40, 2 ** 56 - 3,
        2 ** 63, cmp.VARINT_MAX])
    def test_values_at_and_above_u32(self, value):
        # The np.frombuffer fast paths assume uint64; everything up to
        # 2**64-1 must survive both decoders exactly.
        blob = cmp.encode_varints([1, value, 7])
        assert cmp.decode_varints(blob) == [1, value, 7]
        assert cmp.decode_varints_vectorized(blob).tolist() == \
            [1, value, 7]

    def test_beyond_uint64_rejected_by_both(self):
        out = bytearray()
        # Hand-roll a varint for 2**64: eleven bytes, exceeds the
        # 10-byte budget outright.
        value = 2 ** 64
        while value >= 0x80:
            out.append((value & 0x7F) | 0x80)
            value >>= 7
        out.append(value)
        blob = bytes(out)
        with pytest.raises(ValueError):
            cmp.decode_varints(blob)
        with pytest.raises(ValueError):
            cmp.decode_varints_vectorized(blob)

    def test_ten_byte_overflow_rejected(self):
        # Ten bytes whose final byte pushes past 2**64-1: a valid
        # *length* but an invalid *value*.
        blob = bytes([0xFF] * 9 + [0x02])
        with pytest.raises(ValueError):
            cmp.decode_varints(blob)
        with pytest.raises(ValueError):
            cmp.decode_varints_vectorized(blob)

    def test_truncated_stream_rejected_by_both(self):
        blob = cmp.encode_varints([300])[:-1]  # continuation bit dangles
        with pytest.raises(ValueError):
            cmp.decode_varints(blob)
        with pytest.raises(ValueError):
            cmp.decode_varints_vectorized(blob)

    def test_empty_stream(self):
        assert cmp.decode_varints(b"") == []
        assert cmp.decode_varints_vectorized(b"").tolist() == []

    def test_memoryview_and_ndarray_inputs(self):
        values = [0, 127, 128, 2 ** 21, 2 ** 40]
        blob = cmp.encode_varints(values)
        for view in (memoryview(blob),
                     np.frombuffer(blob, dtype=np.uint8)):
            assert cmp.decode_varints_vectorized(view).tolist() == values
            assert cmp.decode_varints(view) == values


class TestVectorizedColumnDecoders:
    """decode_delta_blocks / decode_rle with vectorized=True must be
    indistinguishable from the scalar loops they replace."""

    @given(sorted_columns)
    def test_delta_differential(self, values):
        blob = cmp.encode_delta_blocks(values)
        assert cmp.decode_delta_blocks(blob, vectorized=True).tolist() \
            == cmp.decode_delta_blocks(blob, vectorized=False).tolist() \
            == values

    @given(sorted_columns)
    def test_rle_differential(self, values):
        blob = cmp.encode_rle(values)
        assert cmp.decode_rle(blob, vectorized=True).tolist() \
            == cmp.decode_rle(blob, vectorized=False).tolist() == values

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
        assert cmp.decode_delta_blocks(blob, vectorized=True).tolist() \
            == values

    def test_decompress_column_threads_flag(self):
        values = [1, 1, 2, 3, 5, 8, 13]
        for scheme, blob in (cmp.choose_codec(values, (codec,))
                             for codec in cmp.CODECS):
            vec = cmp.decompress_column(scheme, blob, vectorized=True)
            ref = cmp.decompress_column(scheme, blob, vectorized=False)
            assert vec.tolist() == ref.tolist() == values
