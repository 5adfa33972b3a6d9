"""Tests for repro.quant.entropy — the arithmetic coder.

``_entropy_oracle`` is the symbol-at-a-time coder the module used to
be; the differential tests require the rewrite to match it byte for
byte on encode and symbol for symbol on decode, garbage included.
"""

import tracemalloc

import numpy as np
import pytest
from _entropy_oracle import ArithmeticDecoder, ArithmeticEncoder
from _entropy_oracle import decode as oracle_decode
from _entropy_oracle import encode as oracle_encode
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_entropy_golden import plane_bitstream

from repro.quant import entropy
from repro.quant.entropy import decode, encode


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
    """The oracle's streaming coder agrees with the batch functions."""

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
        for n_symbols in (0, -3):
            with pytest.raises(ValueError, match="alphabet must be non-"):
                encode(np.array([], dtype=np.int64), n_symbols)
            with pytest.raises(ValueError, match="alphabet must be non-"):
                decode(b"\x12\x34", 3, n_symbols)


class TestDecodeChecks:
    def test_negative_count(self):
        """``range(-5)`` is empty, so this once decoded nothing."""
        data = encode(np.array([1, 2, 3]), 4)
        with pytest.raises(ValueError, match="n_values must be"):
            decode(data, -5, 4)


def _stream(kind: str, n_symbols: int, length: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        return rng.integers(0, n_symbols, size=length)
    if kind == "skewed":  # centred, like CacheGen's delta codes
        codes = np.rint(rng.normal(n_symbols / 2, 1 + n_symbols / 32,
                                   size=length))
        return np.clip(codes, 0, n_symbols - 1).astype(np.int64)
    return np.full(length, rng.integers(0, n_symbols), dtype=np.int64)


#: Alphabets 1–300 and lengths up to 5000: every alphabet's stream can
#: cross the encoder's numpy chunks (``_CHUNK_CELLS // (n + 1)`` rows).
_streams = given(kind=st.sampled_from(["uniform", "skewed", "constant"]),
                 n_symbols=st.integers(1, 300), length=st.integers(0, 5000),
                 seed=st.integers(0, 2**32 - 1))


def _long_streams(test):
    """Always run the longest streams too, which hypothesis seldom
    draws: several chunks at the smallest and largest alphabets."""
    for kind, n_symbols in [("constant", 1), ("uniform", 2), ("skewed", 16),
                            ("skewed", 255), ("uniform", 300)]:
        test = example(kind, n_symbols, 5000, 0)(test)
    return test


class TestMatchesOracle:
    def test_chunks_are_shorter_than_the_longest_stream(self):
        assert entropy._CHUNK_CELLS // 2 < 5000

    @_long_streams
    @_streams
    @settings(max_examples=40, deadline=None)
    def test_encode_is_byte_identical(self, kind, n_symbols, length, seed):
        syms = _stream(kind, n_symbols, length, seed)
        assert encode(syms, n_symbols) == oracle_encode(syms, n_symbols)

    @_long_streams
    @_streams
    @settings(max_examples=40, deadline=None)
    def test_decode_matches_on_valid_and_truncated_streams(
            self, kind, n_symbols, length, seed):
        syms = _stream(kind, n_symbols, length, seed)
        data = encode(syms, n_symbols)
        np.testing.assert_array_equal(decode(data, length, n_symbols), syms)
        cut = data[:np.random.default_rng(seed).integers(0, len(data) + 1)]
        np.testing.assert_array_equal(
            decode(cut, length, n_symbols),
            oracle_decode(cut, length, n_symbols))

    @given(data=st.binary(max_size=64), n_values=st.integers(0, 600),
           n_symbols=st.integers(1, 300))
    @settings(max_examples=60, deadline=None)
    def test_decode_of_random_bytes(self, data, n_values, n_symbols):
        """Reads past the end are zeros, and no stream makes it raise."""
        got = decode(data, n_values, n_symbols)
        np.testing.assert_array_equal(
            got, oracle_decode(data, n_values, n_symbols))
        assert got.dtype == np.int64 and got.shape == (n_values,)


class TestMemory:
    """The coder's working set stays bounded on the ``kernels-decode``
    plane (61,440 16-ary symbols): a whole-stream ``n × alphabet``
    int64 model alone would take 7.9 MB."""

    LIMIT = 1 << 20

    @staticmethod
    def _peak(call) -> int:
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_encode_and_decode_peaks(self):
        data = plane_bitstream(1)
        codes = decode(data, 61_440, 16)
        assert self._peak(lambda: encode(codes, 16)) < self.LIMIT
        assert self._peak(lambda: decode(data, 61_440, 16)) < self.LIMIT


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
