"""Tests for repro.quant.entropy — the arithmetic coder."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.quant.entropy import (
    ArithmeticDecoder,
    ArithmeticEncoder,
    decode,
    encode,
)


class TestRoundTrip:
    def test_simple_sequence(self):
        syms = np.array([0, 1, 2, 3, 2, 1, 0])
        data = encode(syms, 4)
        np.testing.assert_array_equal(decode(data, syms.size, 4), syms)

    def test_single_symbol(self):
        data = encode(np.array([5]), 8)
        np.testing.assert_array_equal(decode(data, 1, 8), [5])

    def test_empty_sequence(self):
        data = encode(np.array([], dtype=int), 4)
        assert decode(data, 0, 4).size == 0

    def test_repeated_symbol(self):
        syms = np.zeros(500, dtype=int)
        data = encode(syms, 16)
        np.testing.assert_array_equal(decode(data, 500, 16), syms)

    @pytest.mark.parametrize("n_symbols", [2, 4, 16, 256])
    def test_random_uniform(self, n_symbols):
        rng = np.random.default_rng(n_symbols)
        syms = rng.integers(0, n_symbols, size=400)
        data = encode(syms, n_symbols)
        np.testing.assert_array_equal(decode(data, syms.size, n_symbols), syms)

    def test_alphabet_boundaries(self):
        syms = np.array([0, 15, 0, 15, 15, 0])
        data = encode(syms, 16)
        np.testing.assert_array_equal(decode(data, syms.size, 16), syms)

    @given(st.lists(st.integers(0, 7), min_size=0, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, values):
        syms = np.array(values, dtype=int)
        data = encode(syms, 8)
        np.testing.assert_array_equal(decode(data, syms.size, 8), syms)


class TestCompression:
    def test_skewed_distribution_compresses(self):
        """Low-entropy input must code in well under log2(alphabet) bits."""
        rng = np.random.default_rng(0)
        syms = np.clip(np.round(rng.normal(8, 0.5, size=4000)), 0, 15)
        data = encode(syms.astype(int), 16)
        bits_per_symbol = len(data) * 8 / syms.size
        assert bits_per_symbol < 2.5  # vs 4 bits nominal

    def test_constant_input_near_zero_bits(self):
        syms = np.full(4000, 3, dtype=int)
        data = encode(syms, 16)
        assert len(data) * 8 / syms.size < 0.1

    def test_uniform_input_near_nominal_bits(self):
        rng = np.random.default_rng(1)
        syms = rng.integers(0, 16, size=4000)
        data = encode(syms, 16)
        bits_per_symbol = len(data) * 8 / syms.size
        assert 3.9 < bits_per_symbol < 4.3

    def test_adaptivity_learns_distribution(self):
        """The adaptive model re-learns after a distribution shift and
        still codes far below the nominal 4 bits per symbol."""
        syms = np.concatenate([np.full(2000, 1), np.full(2000, 9)])
        data = encode(syms, 16)
        assert len(data) * 8 / syms.size < 1.2


class TestStreamingApi:
    def test_incremental_matches_batch(self):
        rng = np.random.default_rng(2)
        syms = rng.integers(0, 8, size=100)
        enc = ArithmeticEncoder(8)
        for s in syms:
            enc.encode_symbol(int(s))
        data = enc.finish()
        assert data == encode(syms, 8)

    def test_decoder_streaming(self):
        syms = [3, 1, 4, 1, 5]
        data = encode(np.array(syms), 8)
        dec = ArithmeticDecoder(data, 8)
        assert [dec.decode_symbol() for _ in syms] == syms

    def test_invalid_alphabet(self):
        with pytest.raises(ValueError):
            ArithmeticEncoder(0)


class TestEncodeRejectsBadSymbols:
    """Unchecked, a bad symbol wraps around the alphabet (``-1`` codes
    as ``n - 1``), raises ``IndexError`` or is truncated (``1.7`` →
    ``1``)."""

    @pytest.mark.parametrize("symbols", [[-1, 2, -3], [0, 4], [1, 99]],
                             ids=["negative", "equal-to-n", "above-n"])
    def test_out_of_range(self, symbols):
        with pytest.raises(ValueError, match=r"\[0, 4\)"):
            encode(np.array(symbols), 4)

    @pytest.mark.parametrize("bad", [1.7, np.nan, np.inf, -np.inf])
    def test_not_a_whole_symbol(self, bad):
        with pytest.raises(ValueError, match="symbols must"):
            encode(np.array([0.0, bad, 2.0]), 4)

    def test_non_numeric(self):
        with pytest.raises(ValueError, match="numbers"):
            encode(np.array(["a", "b"]), 4)

    def test_whole_floats_code_like_ints(self):
        syms = np.array([3, 1, 0, 2, 2, 3])
        assert encode(syms.astype(float), 4) == encode(syms, 4)

    def test_empty_input_is_still_valid(self):
        assert encode(np.array([], dtype=float), 4) == \
            encode(np.array([], dtype=int), 4)
