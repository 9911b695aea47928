"""FOR, varint columns, the statistics-driven selector, and the
scalar/vectorized decode crossover.

Every decoder ships a scalar reference path (``vectorized=False``);
the vectorized kernels must match it bit-for-bit on every shape the
encoder can produce -- empty columns, width-0 blocks, ragged final
blocks, and values past 2^32.
"""

import numpy as np
import pytest

from repro import XMLDatabase
from repro.index.compression import (CODECS, DEFAULT_BLOCK_SIZE,
                                     PAPER_CODECS, SCHEME_IDS,
                                     SCHEME_NAMES, VECTORIZED_MIN_BYTES,
                                     choose_codec, decode_for,
                                     decode_varint_column,
                                     decompress_column, encode_for,
                                     encode_varint_column)


def roundtrip_for(values, block_size=DEFAULT_BLOCK_SIZE):
    blob = encode_for(np.asarray(values, dtype=np.int64),
                      block_size=block_size)
    vec = decode_for(blob, vectorized=True)
    ref = decode_for(blob, vectorized=False)
    np.testing.assert_array_equal(vec, ref)
    np.testing.assert_array_equal(vec,
                                  np.asarray(values, dtype=np.int64))
    return blob


class TestForCodec:
    def test_empty_column(self):
        blob = encode_for(np.empty(0, dtype=np.int64))
        assert decode_for(blob, vectorized=True).size == 0
        assert decode_for(blob, vectorized=False).size == 0

    def test_single_value_is_width_zero(self):
        """One value per block means delta 0 everywhere: the block
        payload is empty and the value rides entirely in the base."""
        blob = roundtrip_for([42])
        # header (8) + one base (8) + one width byte (1), no payload
        assert len(blob) == 17

    def test_constant_column_is_width_zero(self):
        values = [7] * 1000
        blob = roundtrip_for(values)
        n_blocks = -(-1000 // DEFAULT_BLOCK_SIZE)
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
        blob = encode_for(np.arange(1000, dtype=np.int64))
        for cut in (2, 7, len(blob) // 2, len(blob) - 1):
            with pytest.raises(ValueError):
                decode_for(blob[:cut], vectorized=True)
            with pytest.raises(ValueError):
                decode_for(blob[:cut], vectorized=False)

    def test_fuzz_parity(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            size = int(rng.integers(0, 3000))
            hi = int(rng.choice([2**8, 2**20, 2**34, 2**62]))
            values = rng.integers(0, hi, size=size)
            roundtrip_for(values)


class TestVarintColumn:
    def test_empty(self):
        blob = encode_varint_column(np.empty(0, dtype=np.int64))
        assert decode_varint_column(blob).size == 0

    def test_parity_and_large_values(self):
        rng = np.random.default_rng(5)
        values = rng.integers(0, 2**40, size=2000)
        blob = encode_varint_column(values)
        vec = decode_varint_column(blob, vectorized=True)
        ref = decode_varint_column(blob, vectorized=False)
        np.testing.assert_array_equal(vec, ref)
        np.testing.assert_array_equal(vec, values)

    def test_truncated_is_value_error(self):
        blob = encode_varint_column(np.arange(100, dtype=np.int64))
        with pytest.raises(ValueError):
            decode_varint_column(blob[: len(blob) // 2])


def _encodable(values, candidate):
    """`candidate`'s payload for `values`, or None if it cannot encode
    them (rle and delta demand sorted input)."""
    try:
        return choose_codec(values, codecs=(candidate,))[1]
    except ValueError:
        return None


class TestChooseCodec:
    def test_registry_is_bijective(self):
        assert set(SCHEME_IDS.values()) == set(SCHEME_NAMES.keys())
        for name, scheme_id in SCHEME_IDS.items():
            assert SCHEME_NAMES[scheme_id] == name
        assert set(CODECS) == set(SCHEME_IDS)
        assert set(PAPER_CODECS) == {"rle", "delta"}

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
            scheme, payload = choose_codec(values)
            assert scheme == expected
            for candidate in CODECS:
                other = _encodable(values, candidate)
                assert other is None or len(payload) <= len(other)
            decoded = decompress_column(scheme, payload)
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
                scheme, payload = choose_codec(values)
                np.testing.assert_array_equal(
                    decompress_column(scheme, payload), values)
                picked += len(payload)
                best += min(len(blob) for blob in (
                    _encodable(values, c) for c in CODECS)
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
            scheme, payload = choose_codec(values, PAPER_CODECS)
            assert scheme == expected, values
            assert list(decompress_column(scheme, payload)) == values

    def test_unsorted_column_needs_for_or_varint(self):
        values = [9, 3, 7]
        scheme, payload = choose_codec(values)
        assert scheme in ("for", "varint")
        assert list(decompress_column(scheme, payload)) == values
        with pytest.raises(ValueError):
            choose_codec(values, PAPER_CODECS)

    def test_constant_column_prefers_rle(self):
        scheme, _ = choose_codec(np.full(10_000, 123, dtype=np.int64))
        assert scheme == "rle"

    def test_unknown_codec_is_value_error(self):
        with pytest.raises(ValueError):
            choose_codec(np.arange(4, dtype=np.int64),
                         codecs=("snappy",))

    def test_every_choice_decodes_scalar_and_vectorized(self):
        rng = np.random.default_rng(21)
        values = np.sort(rng.integers(0, 2**34, size=777))
        scheme, payload = choose_codec(values)
        np.testing.assert_array_equal(
            decompress_column(scheme, payload, vectorized=True),
            decompress_column(scheme, payload, vectorized=False))


class TestVectorizedCrossover:
    def test_default_threshold(self):
        assert VECTORIZED_MIN_BYTES == 256

    def test_crossover_controls_dispatch(self, monkeypatch):
        """Below the threshold the scalar decoder runs even with
        vectorized=True; identical output either way, so the crossover
        is purely a performance trade."""
        values = np.arange(64, dtype=np.int64)
        scheme, payload = choose_codec(values)
        assert len(payload) < VECTORIZED_MIN_BYTES

        calls = {}
        import repro.index.compression as comp

        real = comp._DECODERS[scheme]

        def spy(data, vectorized=True):
            calls["vectorized"] = vectorized
            return real(data, vectorized=vectorized)

        monkeypatch.setitem(comp._DECODERS, scheme, spy)
        out_small = decompress_column(scheme, payload, vectorized=True)
        assert calls["vectorized"] is False
        monkeypatch.setattr(comp, "VECTORIZED_MIN_BYTES", 0)
        out_vec = decompress_column(scheme, payload, vectorized=True)
        assert calls["vectorized"] is True
        np.testing.assert_array_equal(out_small, out_vec)
