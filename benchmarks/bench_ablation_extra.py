"""Bench: design-choice ablations beyond the paper's own (DESIGN.md §4).

Three choices the paper fixes without sweeping, checked here:

* stochastic vs nearest rounding for the 2-bit KV codes;
* 8-bit vs 2-bit quantization of Q (the paper argues Q can afford
  8 bits since it is discarded after use);
* the Eq. 4 evaluation granularity — blocked (Fig. 6b) vs unblocked
  evaluation must agree numerically.
"""

import numpy as np
from conftest import run_once

from repro.accuracy.kv_distributions import synthetic_attention_inputs
from repro.core import (
    HackConfig,
    attention_hack,
    attention_reference,
    homomorphic_matmul,
    homomorphic_matmul_blocked,
    make_rng,
    quantize,
)


def _mean_error(config: HackConfig, trials=6, n_tokens=192, d=128):
    errs = []
    for seed in range(trials):
        rng = make_rng(300 + seed)
        q, k, v = synthetic_attention_inputs(n_tokens, d, rng, l_q=16)
        ref = attention_reference(q, k, v, causal=False)
        out = attention_hack(q, k, v, config, rng=make_rng(seed),
                             causal=False)
        errs.append(np.linalg.norm(out - ref) / np.linalg.norm(ref))
    return float(np.mean(errs))


def test_q_bits_ablation(benchmark):
    """8-bit Q (the paper's choice) must beat 2-bit Q on accuracy."""
    def run():
        return {
            "q8": _mean_error(HackConfig(q_bits=8)),
            "q2": _mean_error(HackConfig(q_bits=2)),
        }

    result = run_once(benchmark, run)
    print(f"\nQ-bits ablation: {result}")
    assert result["q8"] < result["q2"]


def test_rounding_ablation(benchmark):
    """Both roundings land in the same error regime; the paper prefers
    stochastic for its unbiasedness (errors cancel in expectation)."""
    def run():
        return {
            "stochastic": _mean_error(HackConfig(rounding="stochastic")),
            "nearest": _mean_error(HackConfig(rounding="nearest")),
        }

    result = run_once(benchmark, run)
    print(f"\nRounding ablation: {result}")
    assert 0 < result["stochastic"] < 1.0
    assert 0 < result["nearest"] < 1.0
    assert result["stochastic"] < 2.5 * result["nearest"]


def test_int4_kernel_projection(benchmark):
    """§8 future work: an INT4 kernel should shave further JCT off HACK
    (bounded — compute is only part of the iteration)."""
    from repro.api import Runner, Scenario

    def run():
        res = Runner().run(Scenario(methods=("hack", "hack_int4"),
                                    dataset="cocktail", scale=0.3)).results
        return {m: r.avg_jct() for m, r in res.items()}

    jcts = run_once(benchmark, run)
    print(f"\nINT4 projection: {jcts}")
    assert jcts["hack_int4"] < jcts["hack"]
    assert jcts["hack_int4"] > 0.8 * jcts["hack"]  # a trim, not a rewrite


def test_eviction_composition(benchmark):
    """§9 future work: eviction composes with 2-bit quantization —
    compound compression at bounded extra error."""
    from repro.core import EvictingKVCache, Fp16KVCache, HackKVCache

    d, n = 64, 256
    rng = make_rng(10)
    q_in, k, v = synthetic_attention_inputs(n, d, rng, l_q=1)
    q_vec = q_in[0]

    def run():
        exact = Fp16KVCache(d)
        exact.append_bulk(k, v)
        ref = exact.attention(q_vec)

        cache = EvictingKVCache(
            HackKVCache(d, partition_size=32, rng=make_rng(0)),
            budget=n // 2, protected_recent=8,
        )
        cache.append_bulk(k, v)
        cache.attention(q_vec)  # builds the heavy-hitter profile
        out = cache.attention(q_vec)
        rel = float(np.linalg.norm(out - ref) / np.linalg.norm(ref))
        ratio = cache.live_kv_nbytes() / exact.kv_nbytes()
        return rel, ratio

    rel, ratio = run_once(benchmark, run)
    print(f"\neviction+2bit: bytes ratio {ratio:.3f}, attn error {rel:.3f}")
    assert ratio < 0.12   # compound: ~8x quantization x 2x eviction
    assert rel < 0.8


def test_blocked_evaluation_equivalence(benchmark):
    """Fig. 6(b) blocked Eq. 4 equals the unblocked evaluation."""
    rng = make_rng(0)
    a = rng.normal(size=(16, 128))
    b = rng.normal(size=(128, 16))

    def run():
        qa = quantize(a, 8, axis=1, partition_size=32, rounding="nearest")
        qb = quantize(b, 2, axis=0, partition_size=32, rounding="nearest")
        full = homomorphic_matmul(qa, qb)
        blocks_a = [
            quantize(a[:, lo:hi], 8, axis=1, partition_size=32,
                     rounding="nearest")
            for lo, hi in ((0, 64), (64, 128))
        ]
        blocks_b = [
            quantize(b[lo:hi, :], 2, axis=0, partition_size=32,
                     rounding="nearest")
            for lo, hi in ((0, 64), (64, 128))
        ]
        blocked = homomorphic_matmul_blocked(blocks_a, blocks_b)
        return float(np.abs(full - blocked).max())

    max_diff = run_once(benchmark, run)
    print(f"\nBlocked-vs-unblocked max diff: {max_diff:.2e}")
    assert max_diff < 1e-9
