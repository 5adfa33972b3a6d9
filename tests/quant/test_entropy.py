"""Tests for repro.quant.entropy — the lane-interleaved rANS coder."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_entropy_golden import every_step_renormalises, plane_bitstream

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
        """A stream that shifts from one symbol to another codes near
        its one bit of entropy per symbol, far below the nominal 4."""
        syms = np.concatenate([np.full(2000, 1), np.full(2000, 9)])
        data = encode(syms, 16)
        assert len(data) * 8 / syms.size < 1.2


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


#: Alphabets 1–300 and lengths up to 5000: up to ten lanes, with a
#: short last row at most lengths.
_streams = given(kind=st.sampled_from(["uniform", "skewed", "constant"]),
                 n_symbols=st.integers(1, 300), length=st.integers(0, 5000),
                 seed=st.integers(0, 2**32 - 1))


def _long_streams(test):
    """Always run the longest streams too, which hypothesis seldom
    draws: ten lanes at the smallest and largest alphabets."""
    for kind, n_symbols in [("constant", 1), ("uniform", 2), ("skewed", 16),
                            ("skewed", 255), ("uniform", 300)]:
        test = example(kind, n_symbols, 5000, 0)(test)
    return test


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


#: Both sides of every lane-count step a 0–5000 stream crosses (one
#: lane per 512 symbols), and of the step to the 128-lane cap; the
#: last row is short at most of them (1025 symbols on 3 lanes, …).
_LANE_STEPS = sorted({0, 1, 65_024, 65_025, 65_536, 65_537}
                     | {k * 512 + d for k in range(1, 10) for d in (0, 1)})


class TestLanes:
    def test_lane_count_steps(self):
        assert [entropy._lanes(n) for n in (0, 1, 512, 513, 1025, 65_024,
                                            65_025, 10**6)] == \
            [1, 1, 1, 2, 3, 127, 128, 128]

    @pytest.mark.parametrize("length", _LANE_STEPS)
    def test_roundtrip_at_lane_steps(self, length):
        syms = _stream("skewed", 16, length, length)
        data = encode(syms, 16)
        np.testing.assert_array_equal(decode(data, length, 16), syms)

    @_long_streams
    @_streams
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_over_alphabets_and_lengths(self, kind, n_symbols,
                                                  length, seed):
        syms = _stream(kind, n_symbols, length, seed)
        data = encode(syms, n_symbols)
        got = decode(data, length, n_symbols)
        np.testing.assert_array_equal(got, syms)
        assert got.dtype == np.int64

    def test_every_lane_renormalises_every_step(self):
        """One slot per symbol: a 16-bit word per symbol, after a table
        of two bytes per symbol."""
        syms = every_step_renormalises()
        data = encode(syms, 1 << 16)
        assert len(data) > 4 * syms.size
        np.testing.assert_array_equal(
            decode(data, syms.size, 1 << 16), syms)


#: 640 symbols of 16 (two lanes, a two-byte frequency each).
_SYMS = np.random.default_rng(5).permutation(np.arange(640) % 16)


class TestMalformedStreams:
    """A decoder that runs out of bytes, or finds some left over, says
    so instead of making symbols up."""

    @pytest.mark.parametrize("cut, n_values, n_symbols, message", [
        (3, 640, 16, "ends inside the table"),
        (50, 640, 16, "ends inside the final states"),
        (-2, 640, 16, "too few words"),
        (-1, 640, 16, "ends inside a word"),
        (None, 641, 16, "too few words"),
        (None, 639, 16, "do not end in their initial state"),
        (None, 640, 8192, "sum to 4096, not 8192"),
    ])
    def test_truncated_or_mismatched(self, cut, n_values, n_symbols,
                                     message):
        data = encode(_SYMS, 16)[:cut]
        with pytest.raises(ValueError, match=message):
            decode(data, n_values, n_symbols)

    @pytest.mark.parametrize("data, message", [
        (b"\x7f", "128 table entries for 16 symbols"),
        (b"\x00\x10\x00", "outside 16 symbols"),
        (b"\x00\x03\xfe\x1f\x00", "sum to 4095, not 4096"),
        (b"\x00\x03\xff\x1f\x80\x80\x80\x80\x7f", "out of range"),
        (b"\x00\x03\xff\x1f\x80\x80\x80\x80\x80", "not a varint"),
    ])
    def test_bad_header(self, data, message):
        with pytest.raises(ValueError, match=message):
            decode(data, 10, 16)

    def test_leftover_words(self):
        data = encode(_SYMS, 16) + bytes(4)
        with pytest.raises(ValueError, match="2 words left over"):
            decode(data, 640, 16)

    def test_empty_stream_has_no_bytes(self):
        with pytest.raises(ValueError, match="empty stream"):
            decode(b"\0", 0, 16)

    def test_invalid_alphabet(self):
        for n_symbols in (0, -3):
            with pytest.raises(ValueError, match="alphabet must be non-"):
                encode(np.array([], dtype=np.int64), n_symbols)
            with pytest.raises(ValueError, match="alphabet must be non-"):
                decode(b"\x12\x34", 3, n_symbols)
        with pytest.raises(ValueError, match="at most 65536"):
            encode(np.array([0]), 65_537)

    @_streams
    @settings(max_examples=40, deadline=None)
    def test_every_truncation_raises(self, kind, n_symbols, length, seed):
        """The decoder uses every byte of a stream, so a proper prefix
        always runs short."""
        data = encode(_stream(kind, n_symbols, length, seed), n_symbols)
        for cut in {0, len(data) // 2, len(data) - 1}:
            if 0 <= cut < len(data):
                with pytest.raises(ValueError):
                    decode(data[:cut], length, n_symbols)

    @given(data=st.binary(max_size=64), n_values=st.integers(0, 600),
           n_symbols=st.integers(1, 300))
    @settings(max_examples=100, deadline=None)
    def test_random_bytes_decode_or_raise(self, data, n_values, n_symbols):
        _decodes_or_raises(data, n_values, n_symbols)

    @given(position=st.integers(0, 10**6), flip=st.integers(1, 255),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_corrupted_stream_decodes_or_raises(self, position, flip,
                                                seed):
        syms = _stream("skewed", 16, 1500, seed)
        data = bytearray(encode(syms, 16))
        data[position % len(data)] ^= flip
        _decodes_or_raises(bytes(data), 1500, 16)


def _decodes_or_raises(data, n_values, n_symbols):
    """Either ``n_values`` in-range symbols or a :class:`ValueError`."""
    try:
        got = decode(data, n_values, n_symbols)
    except ValueError:
        return
    assert got.dtype == np.int64 and got.shape == (n_values,)
    assert ((got >= 0) & (got < n_symbols)).all()
