"""The one-pass kernels against the per-partition loops they replaced.

``quantize``, ``dequantize``, ``partition_sums`` and
``homomorphic_matmul`` evaluate every partition in one numpy pass.  The
loops below are the original one-partition-at-a-time implementations,
kept only as oracles: the one-pass versions must match them bit for
bit, and must consume the stochastic-rounding generator in exactly the
same order.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.homomorphic import homomorphic_matmul
from repro.core.quantize import (
    QuantizedTensor,
    dequantize,
    partition_bounds,
    quantize,
)
from repro.core.rounding import make_rng, nearest_round, stochastic_round

# -- reference loops -----------------------------------------------------------


def ref_partition_reduce(x, axis, bounds, reducer):
    pieces = []
    for lo, hi in bounds:
        block = x[:, lo:hi] if axis == 1 else x[lo:hi, :]
        pieces.append(reducer(block, axis=axis))
    return np.stack(pieces, axis=axis)


def ref_quantize(x, bits, axis, partition_size, rng=None, rounding="stochastic"):
    x = np.asarray(x, dtype=np.float64)
    bounds = partition_bounds(x.shape[axis], partition_size)
    levels = (1 << bits) - 1
    mins = ref_partition_reduce(x, axis, bounds, np.minimum.reduce)
    maxs = ref_partition_reduce(x, axis, bounds, np.maximum.reduce)
    scales = (maxs - mins) / levels
    safe_scales = np.where(scales == 0.0, 1.0, scales)
    codes = np.empty(x.shape, dtype=np.uint8)
    for p, (lo, hi) in enumerate(bounds):
        if axis == 1:
            normalized = (x[:, lo:hi] - mins[:, p, None]) / safe_scales[:, p, None]
        else:
            normalized = (x[lo:hi, :] - mins[None, p, :]) / safe_scales[None, p, :]
        if rounding == "stochastic":
            rounded = stochastic_round(normalized, rng)
        else:
            rounded = nearest_round(normalized)
        rounded = np.clip(rounded, 0, levels)
        if axis == 1:
            codes[:, lo:hi] = rounded.astype(np.uint8)
        else:
            codes[lo:hi, :] = rounded.astype(np.uint8)
    return QuantizedTensor(codes=codes, mins=mins, scales=scales, bits=bits,
                           axis=axis, partition_size=partition_size)


def ref_dequantize(qt):
    out = np.empty(qt.codes.shape, dtype=np.float64)
    codes = qt.codes.astype(np.float64)
    for p, (lo, hi) in enumerate(qt.bounds()):
        if qt.axis == 1:
            out[:, lo:hi] = codes[:, lo:hi] * qt.scales[:, p, None] + qt.mins[:, p, None]
        else:
            out[lo:hi, :] = codes[lo:hi, :] * qt.scales[None, p, :] + qt.mins[None, p, :]
    return out


def ref_partition_sums(qt):
    return ref_partition_reduce(qt.codes.astype(np.int64), qt.axis,
                                qt.bounds(), np.add.reduce)


def ref_homomorphic_matmul(qa, qb):
    out = np.zeros((qa.codes.shape[0], qb.codes.shape[1]))
    b_sums = ref_partition_sums(qb)
    a_codes = qa.codes.astype(np.int64)
    b_codes = qb.codes.astype(np.int64)
    for p, (lo, hi) in enumerate(qa.bounds()):
        width = hi - lo
        int_prod = a_codes[:, lo:hi] @ b_codes[lo:hi, :]
        a_sum = a_codes[:, lo:hi].sum(axis=1)
        s_a = qa.scales[:, p][:, None]
        m_a = qa.mins[:, p][:, None]
        s_b = qb.scales[p, :][None, :]
        m_b = qb.mins[p, :][None, :]
        out += (
            s_a * s_b * int_prod
            + m_b * (s_a * a_sum[:, None])
            + m_a * (s_b * b_sums[p, :][None, :])
            + width * m_a * m_b
        )
    return out


# -- helpers -------------------------------------------------------------------


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_same_tensor(got, want):
    assert _same_bits(got.codes, want.codes)
    assert _same_bits(got.mins, want.mins)
    assert _same_bits(got.scales, want.scales)
    assert (got.bits, got.axis, got.partition_size) == (
        want.bits, want.axis, want.partition_size)


def _check_quantize(x, bits, axis, pi, rounding, seed=0):
    rng_got, rng_want = make_rng(seed), make_rng(seed)
    got = quantize(x, bits, axis, pi, rng=rng_got, rounding=rounding)
    want = ref_quantize(x, bits, axis, pi, rng=rng_want, rounding=rounding)
    _assert_same_tensor(got, want)
    # Both consumed the generator identically, so the streams still agree.
    assert rng_got.bit_generator.state == rng_want.bit_generator.state
    assert _same_bits(dequantize(got), ref_dequantize(want))
    assert _same_bits(got.partition_sums(cached=False), ref_partition_sums(want))
    return got


@st.composite
def matrices(draw):
    """Random matrices; snapping some to a coarse grid makes ties and
    flat partitions common."""
    shape = (draw(st.integers(1, 12)), draw(st.integers(1, 70)))
    rng = make_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=shape) * draw(st.sampled_from([1e-3, 1.0, 100.0]))
    grid = draw(st.sampled_from([0.0, 0.5, 4.0]))
    return np.round(x / grid) * grid if grid else x


# -- quantize / dequantize / partition sums ------------------------------------


@given(matrices(), st.integers(1, 20), st.integers(1, 8), st.sampled_from([0, 1]),
       st.sampled_from(["stochastic", "nearest"]))
@settings(max_examples=200, deadline=None)
def test_quantize_matches_partition_loop(x, pi, bits, axis, rounding):
    """Random shapes, both axes, ragged tails, 1–8 bits, both roundings."""
    _check_quantize(x, bits, axis, pi, rounding)


@given(st.integers(1, 6), st.integers(1, 40), st.integers(1, 12),
       st.sampled_from([0, 1]), st.floats(-10, 10, allow_nan=False))
@settings(max_examples=40, deadline=None)
def test_quantize_constant_partitions_match_loop(rows, cols, pi, axis, value):
    """Constant partitions: scale 0, every code 0, min reproduced exactly."""
    x = np.full((rows, cols), value)
    qt = _check_quantize(x, 2, axis, pi, "stochastic")
    assert not qt.scales.any() and not qt.codes.any()
    np.testing.assert_array_equal(dequantize(qt), x)


@pytest.mark.parametrize("shape,axis", [((600, 250), 1), ((700, 130), 0)])
def test_quantize_matches_loop_across_batches(shape, axis):
    """Matrices big enough to split into several batches of partitions."""
    x = make_rng(1).normal(size=shape) * np.linspace(0.5, 4.0, shape[1])
    for rounding in ("stochastic", "nearest"):
        _check_quantize(x, 2, axis, 64, rounding, seed=5)


def test_quantize_matches_loop_on_strided_input():
    """A transposed (non-contiguous) input, as the caches pass slices."""
    x = make_rng(2).normal(size=(90, 33)).T
    for axis in (0, 1):
        _check_quantize(x, 8, axis, 16, "stochastic")


# -- homomorphic_matmul --------------------------------------------------------


@given(
    hnp.arrays(np.float64, st.tuples(st.integers(1, 5), st.integers(1, 80)),
               elements=st.floats(-50, 50, allow_nan=False, width=32)),
    st.integers(1, 6),
    st.integers(1, 20),
    st.integers(1, 8),
    st.integers(1, 8),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_homomorphic_matches_loop(a, n, pi, bits_a, bits_b, cached, seed):
    rng = make_rng(seed)
    b = rng.normal(size=(a.shape[1], n)) * 10.0
    qa = quantize(a, bits_a, axis=1, partition_size=pi, rng=rng)
    qb = quantize(b, bits_b, axis=0, partition_size=pi, rng=rng)
    got = homomorphic_matmul(qa, qb, use_cached_b_sums=cached)
    assert _same_bits(got, ref_homomorphic_matmul(qa, qb))
    expected = dequantize(qa) @ dequantize(qb)
    np.testing.assert_allclose(got, expected, rtol=1e-9,
                               atol=1e-9 * max(1.0, np.abs(expected).max()))


@pytest.mark.parametrize("pi,bits", [(64, (8, 2)), (300, (8, 8))])
def test_homomorphic_matches_loop_for_both_product_widths(pi, bits):
    """Π=300 with 8×8-bit codes overflows float32's exact integers, so
    both the float32 and the float64 product paths are exercised."""
    rng = make_rng(3)
    # Near-constant values above one low outlier per partition: codes
    # sit at the top of their range, so the code-product sums reach the
    # largest values the widths allow.
    a = 1.0 + 1e-3 * rng.random((3, 650))
    a[:, ::pi] = -1000.0
    b = 1.0 + 1e-3 * rng.random((650, 40))
    b[::pi] = -1000.0
    qa = quantize(a, bits[0], axis=1, partition_size=pi, rng=rng)
    qb = quantize(b, bits[1], axis=0, partition_size=pi, rng=rng)
    for cached in (True, False):
        got = homomorphic_matmul(qa, qb, use_cached_b_sums=cached)
        assert _same_bits(got, ref_homomorphic_matmul(qa, qb))
