"""A runnable decoder-only transformer in numpy.

This is the model substrate for the accuracy experiments: a Llama-style
architecture (RMSNorm → GQA attention with RoPE → SwiGLU MLP, tied
embeddings) small enough to run on CPU, with *pluggable attention*:

* full-sequence backends (prefill path): exact, HACK, dequantize-based,
  and the flash variants — chosen with the ``backend`` argument;
* decode-path caches (one per layer per KV head): any object exposing
  ``append / append_bulk / attention`` — the three cache families of
  :mod:`repro.core.kv_cache` plus the compressor-seeded cache of
  :mod:`repro.quant.roundtrip_cache`.

Weights are random but fixed by seed; the accuracy harness compares
*generation agreement* between the exact backend and each quantized
backend on the same weights, which isolates exactly the quantization
error the paper's Table 6 measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..core.attention import (
    HackConfig,
    attention_dequantize,
    attention_hack,
    attention_reference,
)
from ..core.flash import flash_attention, flash_attention_hack
from .config import ModelSpec
from .rope import apply_rope

__all__ = ["Transformer", "TransformerWeights", "FULL_BACKENDS", "rms_norm",
           "silu"]

FULL_BACKENDS = ("reference", "hack", "dequant", "flash", "flash-hack")

_EPS = 1e-6


def rms_norm(x: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """Root-mean-square layer norm: ``x / rms(x) * weight``."""
    rms = np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + _EPS)
    return x / rms * weight


def silu(x: np.ndarray) -> np.ndarray:
    """SiLU / swish activation: ``x * sigmoid(x)``."""
    return x / (1.0 + np.exp(-x))


@dataclass
class _LayerWeights:
    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    w_gate: np.ndarray
    w_up: np.ndarray
    w_down: np.ndarray
    norm_attn: np.ndarray
    norm_mlp: np.ndarray


class TransformerWeights:
    """Seeded random weights for a :class:`ModelSpec` architecture."""

    def __init__(self, spec: ModelSpec, seed: int = 0) -> None:
        self.spec = spec
        rng = np.random.default_rng(seed)
        h = spec.hidden_size
        q_dim = spec.n_heads * spec.head_dim
        kv_dim = spec.n_kv_heads * spec.head_dim

        def init(rows, cols):
            return rng.normal(scale=1.0 / np.sqrt(rows), size=(rows, cols))

        self.embedding = rng.normal(scale=1.0, size=(spec.vocab_size, h))
        self.layers = [
            _LayerWeights(
                wq=init(h, q_dim),
                wk=init(h, kv_dim),
                wv=init(h, kv_dim),
                wo=init(q_dim, h),
                w_gate=init(h, spec.intermediate_size),
                w_up=init(h, spec.intermediate_size),
                w_down=init(spec.intermediate_size, h),
                norm_attn=np.ones(h),
                norm_mlp=np.ones(h),
            )
            for _ in range(spec.n_layers)
        ]
        self.final_norm = np.ones(h)


class _DecodeState:
    """Per-layer KV caches plus the running position counter."""

    def __init__(self, caches: list[list], position: int) -> None:
        self.caches = caches  # [layer][kv_head] -> cache object
        self.position = position


class Transformer:
    """Runnable numpy transformer with pluggable quantized attention.

    Parameters
    ----------
    spec:
        Architecture (use :func:`repro.model.config.tiny_spec` for CPU
        scale).
    backend:
        Full-sequence attention backend for the prefill path, one of
        :data:`FULL_BACKENDS`.
    hack_config:
        Quantization settings for the ``hack`` / ``dequant`` /
        ``flash-hack`` backends.
    seed / quant_seed:
        Weight seed and stochastic-rounding seed.
    """

    def __init__(
        self,
        spec: ModelSpec,
        backend: str = "reference",
        hack_config: HackConfig | None = None,
        seed: int = 0,
        quant_seed: int = 0,
        weights: TransformerWeights | None = None,
    ) -> None:
        if backend not in FULL_BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; choose from {FULL_BACKENDS}"
            )
        self.spec = spec
        self.backend = backend
        self.hack_config = hack_config or HackConfig(
            partition_size=min(64, spec.head_dim)
        )
        self.weights = weights if weights is not None else TransformerWeights(
            spec, seed
        )
        self._rng = np.random.default_rng(quant_seed)

    # -- full-sequence forward (prefill path) -------------------------------

    def forward_full(self, tokens: Sequence[int]) -> np.ndarray:
        """Logits for every position of ``tokens`` — ``(L, vocab)``."""
        hidden, _ = self._run_layers(tokens, collect_kv=False)
        return self._logits(hidden)

    def kv_planes(self, tokens: Sequence[int]) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per-layer post-RoPE (K, V) planes, each ``(L, n_kv·head_dim)``.

        These are exactly the tensors the prefill instance would ship to
        the decode instance; the compressor experiments operate on them.
        """
        _, planes = self._run_layers(tokens, collect_kv=True)
        return planes

    # -- generation (decode path) -------------------------------------------

    def generate(
        self,
        prompt: Sequence[int],
        max_new_tokens: int,
        cache_factory: Callable[[], object] | None = None,
    ) -> list[int]:
        """Greedy generation: prefill ``prompt``, then decode step-by-step.

        ``cache_factory`` builds one KV cache per (layer, kv-head); it
        defaults to exact FP16 caches.  The prefill K/V planes are
        appended in bulk (mirroring the prefill→decode handoff), after
        which every new token flows through the cache's quantized
        ``append`` and ``attention`` paths.
        """
        if not len(prompt):
            raise ValueError("prompt must contain at least one token")
        if cache_factory is None:
            from ..core.kv_cache import Fp16KVCache

            cache_factory = lambda: Fp16KVCache(self.spec.head_dim)  # noqa: E731

        hidden, planes = self._run_layers(prompt, collect_kv=True)
        logits = self._logits(hidden[-1:])
        next_token = int(np.argmax(logits[-1]))

        caches = []
        d = self.spec.head_dim
        for k_plane, v_plane in planes:
            layer_caches = []
            for h in range(self.spec.n_kv_heads):
                cache = cache_factory()
                layer_caches.append(cache)
                cache.append_bulk(
                    k_plane[:, h * d:(h + 1) * d], v_plane[:, h * d:(h + 1) * d]
                )
            caches.append(layer_caches)
        state = _DecodeState(caches, position=len(prompt))

        out = [next_token]
        for _ in range(max_new_tokens - 1):
            next_token = self._decode_step(next_token, state)
            out.append(next_token)
        return out

    # -- internals -----------------------------------------------------------

    def _run_layers(self, tokens, collect_kv):
        spec = self.spec
        tokens = np.asarray(tokens, dtype=np.int64)
        if tokens.ndim != 1 or tokens.size == 0:
            raise ValueError("tokens must be a non-empty 1-D sequence")
        if tokens.min() < 0 or tokens.max() >= spec.vocab_size:
            raise ValueError("token id out of vocabulary range")
        positions = np.arange(tokens.size)
        x = self.weights.embedding[tokens]
        planes = []
        for layer in self.weights.layers:
            normed = rms_norm(x, layer.norm_attn)
            attn_out, kv = self._attention_full(normed, layer, positions,
                                                collect_kv)
            if collect_kv:
                planes.append(kv)
            x = x + attn_out
            normed = rms_norm(x, layer.norm_mlp)
            x = x + self._mlp(normed, layer)
        return x, planes

    def _attention_full(self, x, layer, positions, collect_kv):
        spec = self.spec
        d = spec.head_dim
        group = spec.n_heads // spec.n_kv_heads
        q = x @ layer.wq
        k = x @ layer.wk
        v = x @ layer.wv

        k_rot = np.empty_like(k)
        outputs = np.empty((x.shape[0], spec.n_heads * d))
        for h_kv in range(spec.n_kv_heads):
            k_h = apply_rope(k[:, h_kv * d:(h_kv + 1) * d], positions)
            k_rot[:, h_kv * d:(h_kv + 1) * d] = k_h
            v_h = v[:, h_kv * d:(h_kv + 1) * d]
            for g in range(group):
                h_q = h_kv * group + g
                q_h = apply_rope(q[:, h_q * d:(h_q + 1) * d], positions)
                outputs[:, h_q * d:(h_q + 1) * d] = self._attend(q_h, k_h, v_h)
        kv = (k_rot, v) if collect_kv else None
        return outputs @ layer.wo, kv

    def _attend(self, q_h, k_h, v_h):
        if self.backend == "reference":
            return attention_reference(q_h, k_h, v_h, causal=True)
        if self.backend == "hack":
            return attention_hack(q_h, k_h, v_h, self.hack_config,
                                  rng=self._rng, causal=True)
        if self.backend == "dequant":
            return attention_dequantize(q_h, k_h, v_h, self.hack_config,
                                        rng=self._rng, causal=True)
        if self.backend == "flash":
            return flash_attention(q_h, k_h, v_h, causal=True)
        return flash_attention_hack(q_h, k_h, v_h, self.hack_config,
                                    rng=self._rng, causal=True)

    def _decode_step(self, token: int, state: _DecodeState) -> int:
        spec = self.spec
        d = spec.head_dim
        group = spec.n_heads // spec.n_kv_heads
        position = np.array([state.position])
        x = self.weights.embedding[np.array([token])]
        for layer, layer_caches in zip(self.weights.layers, state.caches):
            normed = rms_norm(x, layer.norm_attn)
            q = normed @ layer.wq
            k = normed @ layer.wk
            v = normed @ layer.wv
            outputs = np.empty((1, spec.n_heads * d))
            for h_kv in range(spec.n_kv_heads):
                cache = layer_caches[h_kv]
                k_h = apply_rope(k[:, h_kv * d:(h_kv + 1) * d], position)
                cache.append(k_h[0], v[0, h_kv * d:(h_kv + 1) * d])
                for g in range(group):
                    h_q = h_kv * group + g
                    q_h = apply_rope(q[:, h_q * d:(h_q + 1) * d], position)
                    outputs[0, h_q * d:(h_q + 1) * d] = cache.attention(q_h[0])
            x = x + outputs @ layer.wo
            normed = rms_norm(x, layer.norm_mlp)
            x = x + self._mlp(normed, layer)
        logits = self._logits(x)
        state.position += 1
        return int(np.argmax(logits[-1]))

    def _mlp(self, x, layer):
        return (silu(x @ layer.w_gate) * (x @ layer.w_up)) @ layer.w_down

    def _logits(self, hidden):
        normed = rms_norm(hidden, self.weights.final_norm)
        return normed @ self.weights.embedding.T
