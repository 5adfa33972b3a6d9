"""Bench: micro-benchmarks of the core kernels.

Characterizes the library's own primitives (numpy substrate, so
absolute times are not the paper's GPU times — the *count* claims are
what carry over):

* Eq. 4's per-iteration correction flops are orders of magnitude below
  the comparators' dequantization flops at long context (§5.3);
* HACK's wire bytes are ~6.4x smaller than FP16;
* the entropy coder and quantizer throughputs, for the record.
"""

import numpy as np
from conftest import run_once

from repro.core import costs, homomorphic_matmul, make_rng, quantize
from repro.core.kv_cache import DequantizingKVCache, HackKVCache
from repro.quant.entropy import decode, encode
from repro.quant.kvquant import kmeans_1d


def test_homomorphic_matmul_kernel(benchmark):
    rng = make_rng(0)
    a = rng.normal(size=(32, 128))
    b = rng.normal(size=(128, 512))
    qa = quantize(a, 8, axis=1, partition_size=64, rng=rng)
    qb = quantize(b, 2, axis=0, partition_size=64, rng=rng)
    out = benchmark(lambda: homomorphic_matmul(qa, qb))
    assert out.shape == (32, 512)


def test_quantize_kernel(benchmark):
    rng = make_rng(1)
    x = rng.normal(size=(1024, 128))
    qt = benchmark(lambda: quantize(x, 2, axis=1, partition_size=64,
                                    rounding="nearest"))
    assert qt.codes.shape == x.shape


def test_entropy_coder_roundtrip(benchmark):
    rng = make_rng(2)
    syms = np.clip(np.round(rng.normal(4, 1.0, size=2000)), 0, 7).astype(int)

    def roundtrip():
        data = encode(syms, 8)
        return decode(data, syms.size, 8)

    out = benchmark(roundtrip)
    np.testing.assert_array_equal(out, syms)


def test_decode_iteration_flop_claim(benchmark):
    """§5.3: at L=16K, dequantization costs ~50x the Eq. 4 corrections."""
    def counts():
        d_h, ctx = 128, 16200
        return (costs.kv_dequant_flops_per_iter(d_h, ctx),
                costs.hack_approx_flops_per_iter(d_h, ctx))

    dequant, approx = run_once(benchmark, counts)
    print(f"\ndequant flops/iter: {dequant:,}  approx flops/iter: {approx:,} "
          f"(ratio {dequant / approx:.0f}x)")
    assert dequant > 40 * approx


def test_cache_decode_step_hack_vs_dequant(benchmark):
    """One decode step on a 512-token cache, both cache families.

    The measured ledger must show the HACK cache doing no
    dequantization work while the comparator dequantizes everything.
    """
    d, n = 64, 512
    rng = make_rng(3)
    k = rng.normal(size=(n, d))
    v = rng.normal(size=(n, d))
    q = rng.normal(size=d)

    hack = HackKVCache(d, partition_size=32, rng=make_rng(0))
    hack.append_bulk(k, v)
    deq = DequantizingKVCache(d, partition_size=32, rng=make_rng(0))
    deq.append_bulk(k, v)

    def step():
        return hack.attention(q), deq.attention(q)

    benchmark(step)
    assert hack.ledger.dequant_flops == 0
    assert deq.ledger.dequant_flops > 0


def _kmeans_1d_python_loop(values, k, n_iter=25):
    """Pre-vectorization Lloyd's update (per-centroid Python loop) —
    the before case for the ``kmeans_1d`` bincount rewrite."""
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    quantiles = (np.arange(k) + 0.5) / k
    centroids = np.quantile(values, quantiles)
    for _ in range(n_iter):
        assignment = np.argmin(np.abs(values[:, None] - centroids[None, :]),
                               axis=1)
        for j in range(k):
            members = values[assignment == j]
            if members.size:
                centroids[j] = members.mean()
    return np.sort(centroids)


def test_kmeans_lloyd_python_loop(benchmark):
    """Before: per-centroid masked-mean loop (k passes over the data)."""
    rng = make_rng(5)
    sample = rng.normal(size=8192)
    out = benchmark(lambda: _kmeans_1d_python_loop(sample, 64))
    assert out.shape == (64,)


def test_kmeans_lloyd_vectorized(benchmark):
    """After: one ``np.bincount`` pair per Lloyd iteration.

    Must reproduce the loop version's centroids (identical assignments;
    means agree to accumulation order).
    """
    rng = make_rng(5)
    sample = rng.normal(size=8192)
    out = benchmark(lambda: kmeans_1d(sample, 64))
    np.testing.assert_allclose(out, _kmeans_1d_python_loop(sample, 64),
                               rtol=1e-12, atol=1e-12)


def test_wire_size_claim(benchmark):
    """HACK's quantized KV is ~6.4x smaller than FP16 on the wire."""
    rng = make_rng(4)
    plane = rng.normal(size=(1024, 128))

    def compress():
        qt = quantize(plane, 2, axis=1, partition_size=64, rng=make_rng(0))
        return qt.total_nbytes(with_sums=False)

    nbytes = run_once(benchmark, compress)
    ratio = (plane.size * 2) / nbytes
    print(f"\nwire compression: {ratio:.2f}x smaller than FP16")
    assert ratio > 5.5
