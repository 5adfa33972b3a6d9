"""Quantization-error measurement harness.

Two instruments:

* :func:`attention_error` — replay one attention head on realistic
  synthetic Q/K/V (see :mod:`repro.accuracy.kv_distributions`) through a
  method's *actual* quantization path and measure the relative error of
  the attention output against the exact computation.  This is the
  primary signal behind the Table 6 reproduction.

* :func:`decode_path_error` — drive the real :class:`HackKVCache`
  decode path token by token, with and without RQE, and measure the
  attention-output error against an exact FP16 cache.  The *extra*
  error of the no-RQE variant is what Table 7 reports.

Methods are referenced by :class:`~repro.methods.spec.MethodSpec` (or
any spelling it accepts: legacy names, ``family?k=v`` strings, flat
dicts).  The spec's family supplies the whole accuracy path — HACK
variants run the homomorphic attention, dequantize-first families
round-trip K/V through their compressors and attend exactly — so the
harness has no per-method branches and user-registered families are
measured exactly like the built-in ones.
"""

from __future__ import annotations

import numpy as np

from ..core.attention import attention_reference
from ..core.kv_cache import Fp16KVCache, HackKVCache
from ..core.rounding import make_rng
from ..methods.spec import MethodSpec
from .kv_distributions import (
    K_DISTRIBUTION,
    Q_DISTRIBUTION,
    V_DISTRIBUTION,
    synthetic_plane,
)

__all__ = ["ACCURACY_METHODS", "attention_error", "measure_errors",
           "decode_path_error", "rqe_extra_error"]

#: Methods the accuracy experiments compare (Table 6 rows + §3 formats).
ACCURACY_METHODS = (
    "baseline", "hack_pi32", "hack_pi64", "hack_pi128",
    "cachegen", "kvquant", "fp4", "fp6", "fp8",
)


def attention_error(
    method,
    n_tokens: int = 256,
    head_dim: int = 128,
    l_q: int = 32,
    n_trials: int = 6,
    seed: int = 100,
) -> float:
    """Mean relative attention-output error of ``method``.

    ``method`` is any :class:`MethodSpec` spelling.  Exact families
    (``baseline``) return 0.  HACK variants run the full homomorphic
    path (8-bit Q, quantized K/V, 8-bit P, stochastic rounding);
    dequantize-first families quantize K/V through their codec and
    attend exactly, which is what their systems compute.
    """
    spec = MethodSpec.from_reference(method)
    if spec.is_exact:
        return 0.0
    errors = []
    for trial in range(n_trials):
        rng = make_rng(seed + trial)
        q = synthetic_plane(l_q, head_dim, Q_DISTRIBUTION, rng)
        k = synthetic_plane(n_tokens, head_dim, K_DISTRIBUTION, rng)
        v = synthetic_plane(n_tokens, head_dim, V_DISTRIBUTION, rng)
        ref = attention_reference(q, k, v, causal=False)
        out = spec.attention_output(q, k, v, rng=make_rng(seed + trial))
        errors.append(np.linalg.norm(out - ref) / np.linalg.norm(ref))
    return float(np.mean(errors))


def measure_errors(
    methods: tuple = ACCURACY_METHODS,
    n_tokens: int = 256,
    head_dim: int = 128,
    n_trials: int = 6,
    seed: int = 100,
) -> dict:
    """Attention errors for a set of methods under one configuration.

    Keys are the method references as given (strings stay strings,
    specs stay specs) so callers index results with what they passed;
    flat spec dicts, being unhashable, are keyed by their canonical
    string.
    """
    return {
        (MethodSpec.canonical_of(m) if isinstance(m, dict) else m):
            attention_error(m, n_tokens=n_tokens, head_dim=head_dim,
                            n_trials=n_trials, seed=seed)
        for m in methods
    }


def decode_path_error(
    enable_rqe: bool,
    n_prefill: int = 48,
    n_decode: int = 48,
    head_dim: int = 64,
    partition_size: int = 16,
    seed: int = 0,
) -> float:
    """Mean decode-step attention error of :class:`HackKVCache`.

    Appends ``n_prefill`` tokens in bulk (the prefill handoff), then
    decodes ``n_decode`` steps, comparing every step's attention output
    against an exact FP16 cache fed the same values.  The no-RQE cache
    requantizes V's partial block on every append (Fig. 8), so its
    error accumulates with output length — exactly the effect the
    Table 7 ablation quantifies.
    """
    rng = make_rng(seed)
    k_all = synthetic_plane(n_prefill + n_decode, head_dim, K_DISTRIBUTION, rng)
    v_all = synthetic_plane(n_prefill + n_decode, head_dim, V_DISTRIBUTION, rng)
    q_all = synthetic_plane(n_decode, head_dim, Q_DISTRIBUTION, rng)

    hack_cache = HackKVCache(head_dim, partition_size=partition_size,
                             enable_rqe=enable_rqe, rng=make_rng(seed + 1))
    exact_cache = Fp16KVCache(head_dim)
    hack_cache.append_bulk(k_all[:n_prefill], v_all[:n_prefill])
    exact_cache.append_bulk(k_all[:n_prefill], v_all[:n_prefill])

    errors = []
    for step in range(n_decode):
        idx = n_prefill + step
        hack_cache.append(k_all[idx], v_all[idx])
        exact_cache.append(k_all[idx], v_all[idx])
        out = hack_cache.attention(q_all[step])
        ref = exact_cache.attention(q_all[step])
        errors.append(np.linalg.norm(out - ref) / np.linalg.norm(ref))
    return float(np.mean(errors))


def rqe_extra_error(
    n_prefill: int = 48,
    n_decode: int = 48,
    head_dim: int = 64,
    partition_size: int = 16,
    n_trials: int = 4,
    seed: int = 0,
) -> float:
    """Mean extra decode error of HACK/RQE over HACK (Table 7 signal)."""
    deltas = []
    for trial in range(n_trials):
        with_rqe = decode_path_error(True, n_prefill, n_decode, head_dim,
                                     partition_size, seed=seed + trial)
        without = decode_path_error(False, n_prefill, n_decode, head_dim,
                                    partition_size, seed=seed + trial)
        deltas.append(without - with_rqe)
    return float(np.mean(deltas))
