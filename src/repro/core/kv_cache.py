"""Decode-time KV caches (§5.3, §6).

Three cache flavours, one per system family in the paper:

* :class:`Fp16KVCache` — the disaggregated baseline: FP16 K/V, exact
  attention, maximal memory and transfer size.
* :class:`DequantizingKVCache` — the CacheGen/KVQuant family: 2-bit
  codes in the cache, but every decode iteration dequantizes *all*
  tokens' K and V back to FP before attention (cost ``4·d_h·L`` per
  head per iteration, §5.3).
* :class:`HackKVCache` — HACK: 2-bit codes consumed directly by the
  homomorphic matmul.  Implements both systems optimizations and their
  ablations:

  - **SE** (summation elimination): the per-partition integer sums that
    Eq. 4 needs are stored (``b + ⌈log2 Π⌉`` bits each, padded to INT16
    when unaligned) instead of recomputed every iteration.
  - **RQE** (requantization elimination): the last, partially-filled
    sequence-dimension partition of V is kept in FP16 in a side buffer
    and multiplied in FP; it is quantized exactly once, when it fills.
    With RQE disabled the cache faithfully reproduces the behaviour the
    paper ablates: every append dequantizes the partial block,
    requantizes it with the widened ``[min, max]`` (Fig. 8), and the
    error of that round trip accumulates in the cache.

K is partitioned along the head dimension, so a new token's K always
forms whole partitions of its own and never disturbs existing metadata;
V is partitioned along the sequence dimension, which is what creates
the partial-block problem RQE solves (Fig. 7).

Storage
-------
Every cache keeps its contents in contiguous arrays laid out exactly as
attention consumes them, so a decode step reads views and never
rebuilds an operand from per-token pieces:

* ``HackKVCache`` stores K already transposed: codes ``(d_h, cap)``
  uint8 and per-token mins, scales and (under SE) code sums
  ``(P_k, cap)``, ``P_k = ⌈d_h/Π⌉``.  V's full blocks are codes
  ``(cap, d_h)`` uint8 with one metadata row ``(d_h,)`` per block for
  the mins, scales and sums.  Under RQE the partial block is an FP
  ``(Π, d_h)`` buffer; without RQE its requantized codes and metadata
  sit in the block slot it will occupy once full.
* ``DequantizingKVCache`` stores K and V codes ``(cap, d_h)`` uint8 with
  per-token mins and scales ``(cap, P)``, so a decode step dequantizes
  the whole cache in one call per operand.
* ``Fp16KVCache`` stores K and V as ``(cap, d_h)`` rows.

Growth policy: a buffer whose capacity an append would overrun is
reallocated with at least twice the capacity and its live entries
copied over, so appends cost amortized O(1) copies per token and no
buffer holds more than twice its live entries.

Every cache tallies a :class:`CacheLedger` of analytic operation counts
so integration tests and the performance model can charge exactly what
each design pays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import costs
from .attention import softmax
from .homomorphic import homomorphic_matmul
from .packing import packed_nbytes
from .quantize import (
    QuantizedTensor,
    dequantize,
    quantize,
    sum_storage_bits,
)

__all__ = ["CacheLedger", "Fp16KVCache", "DequantizingKVCache", "HackKVCache"]

_FP16_BYTES = 2


@dataclass
class CacheLedger:
    """Cumulative operation counts for one cache instance."""

    int_matmul_flops: int = 0
    fp_matmul_flops: int = 0
    approx_flops: int = 0
    dequant_flops: int = 0
    quant_flops: int = 0
    requant_events: int = 0
    decode_iterations: int = 0

    def merge(self, other: "CacheLedger") -> None:
        """Accumulate another ledger into this one (used across heads)."""
        self.int_matmul_flops += other.int_matmul_flops
        self.fp_matmul_flops += other.fp_matmul_flops
        self.approx_flops += other.approx_flops
        self.dequant_flops += other.dequant_flops
        self.quant_flops += other.quant_flops
        self.requant_events += other.requant_events
        self.decode_iterations += other.decode_iterations


class _Growable:
    """A 2-D array that grows along ``axis``; entries ``[:n]`` are live.

    See the module docstring for the growth policy.
    """

    def __init__(self, width: int, dtype, axis: int = 0) -> None:
        self.axis = axis
        self.n = 0
        self._buf = np.empty((0, width) if axis == 0 else (width, 0), dtype)

    def _index(self, start: int, stop: int) -> tuple[slice, ...]:
        span = slice(start, stop)
        return (span,) if self.axis == 0 else (slice(None), span)

    def live(self, start: int = 0) -> np.ndarray:
        """View of the live entries from ``start`` on."""
        return self._buf[self._index(start, self.n)]

    def put(self, start: int, block: np.ndarray) -> None:
        """Write ``block`` at ``start``; the live part then ends after it."""
        stop = start + block.shape[self.axis]
        capacity = self._buf.shape[self.axis]
        if stop > capacity:
            shape = list(self._buf.shape)
            shape[self.axis] = max(stop, 2 * capacity)
            grown = np.empty(shape, self._buf.dtype)
            grown[self._index(0, self.n)] = self.live()
            self._buf = grown
        self._buf[self._index(start, stop)] = block
        self.n = stop

    def append(self, block: np.ndarray) -> None:
        self.put(self.n, block)


class _BaseKVCache:
    """Shared bookkeeping: length, ledger, append validation."""

    def __init__(self, head_dim: int) -> None:
        if head_dim <= 0:
            raise ValueError(f"head_dim must be positive, got {head_dim}")
        self.head_dim = head_dim
        self.ledger = CacheLedger()
        self._length = 0

    def __len__(self) -> int:
        return self._length

    def _check_vec(self, vec: np.ndarray, name: str) -> np.ndarray:
        vec = np.asarray(vec, dtype=np.float64)
        if vec.shape != (self.head_dim,):
            raise ValueError(
                f"{name} must have shape ({self.head_dim},), got {vec.shape}"
            )
        return vec

    def _check_bulk(self, mat: np.ndarray, name: str) -> np.ndarray:
        mat = np.asarray(mat, dtype=np.float64)
        if mat.ndim != 2 or mat.shape[1] != self.head_dim:
            raise ValueError(
                f"{name} must have shape (L, {self.head_dim}), got {mat.shape}"
            )
        return mat


class Fp16KVCache(_BaseKVCache):
    """Baseline cache: K/V stored at full FP16 precision."""

    def __init__(self, head_dim: int) -> None:
        super().__init__(head_dim)
        self._k = _Growable(head_dim, np.float64)
        self._v = _Growable(head_dim, np.float64)

    def append(self, k_vec: np.ndarray, v_vec: np.ndarray) -> None:
        """Add one token's K and V rows."""
        self._k.append(self._check_vec(k_vec, "k_vec")[None, :])
        self._v.append(self._check_vec(v_vec, "v_vec")[None, :])
        self._length += 1

    def append_bulk(self, k: np.ndarray, v: np.ndarray) -> None:
        """Add many tokens at once (prefill handoff)."""
        k = self._check_bulk(k, "k")
        v = self._check_bulk(v, "v")
        if k.shape[0] != v.shape[0]:
            raise ValueError("k and v must hold the same number of tokens")
        self._k.append(k)
        self._v.append(v)
        self._length += k.shape[0]

    def materialize(self) -> tuple[np.ndarray, np.ndarray]:
        """Return the cache contents as (K, V) matrices."""
        return self._k.live().copy(), self._v.live().copy()

    def attention(self, q_vec: np.ndarray) -> np.ndarray:
        """One exact decode step: attend ``q_vec`` over the whole cache."""
        q = self._check_vec(q_vec, "q_vec")[None, :]
        k, v = self._k.live(), self._v.live()
        scores = (q @ k.T) / np.sqrt(self.head_dim)
        probs = softmax(scores, axis=-1)
        out = probs @ v
        self.ledger.fp_matmul_flops += costs.attention_flops(1, len(self), self.head_dim)
        self.ledger.decode_iterations += 1
        return out[0]

    def kv_nbytes(self) -> int:
        """FP16 bytes held by the cache."""
        return 2 * self._length * self.head_dim * _FP16_BYTES


class DequantizingKVCache(_BaseKVCache):
    """CacheGen/KVQuant-style cache: 2-bit codes, dequantize every use.

    K and V are quantized per token row (partitions along the head
    dimension), so appends never requantize anything — but every
    :meth:`attention` call reconstructs the full FP K and V first,
    paying ``4·d_h·L`` dequantization flops.
    """

    def __init__(
        self,
        head_dim: int,
        partition_size: int = 64,
        kv_bits: int = 2,
        rounding: str = "stochastic",
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__(head_dim)
        self.partition_size = partition_size
        self.kv_bits = kv_bits
        self.rounding = rounding
        self._rng = rng if rng is not None else np.random.default_rng(0)
        n_parts = -(-head_dim // partition_size)

        def plane() -> tuple[_Growable, _Growable, _Growable]:
            # Codes (cap, d_h), then mins and scales (cap, P).
            return (_Growable(head_dim, np.uint8),
                    _Growable(n_parts, np.float64),
                    _Growable(n_parts, np.float64))

        self._planes = (plane(), plane())   # K, V
        # Codes are packed per append, so bytes add up per append too.
        self._code_nbytes = 0

    def append(self, k_vec: np.ndarray, v_vec: np.ndarray) -> None:
        """Quantize and store one token's K and V rows."""
        self.append_bulk(
            self._check_vec(k_vec, "k_vec")[None, :],
            self._check_vec(v_vec, "v_vec")[None, :],
        )

    def append_bulk(self, k: np.ndarray, v: np.ndarray) -> None:
        """Quantize and store many tokens at once."""
        k = self._check_bulk(k, "k")
        v = self._check_bulk(v, "v")
        if k.shape[0] != v.shape[0]:
            raise ValueError("k and v must hold the same number of tokens")
        if k.shape[0] == 0:
            return
        for mat, (codes, mins, scales) in zip((k, v), self._planes):
            qt = quantize(mat, self.kv_bits, axis=1,
                          partition_size=self.partition_size,
                          rng=self._rng, rounding=self.rounding)
            codes.append(qt.codes)
            mins.append(qt.mins)
            scales.append(qt.scales)
            self._code_nbytes += qt.code_nbytes()
            self.ledger.quant_flops += costs.quantize_flops(mat.size)
        self._length += k.shape[0]

    def materialize(self) -> tuple[np.ndarray, np.ndarray]:
        """Dequantize the whole cache to (K̂, V̂)."""
        k_hat, v_hat = (
            dequantize(QuantizedTensor(
                codes=codes.live(), mins=mins.live(), scales=scales.live(),
                bits=self.kv_bits, axis=1,
                partition_size=self.partition_size))
            for codes, mins, scales in self._planes
        )
        return k_hat, v_hat

    def attention(self, q_vec: np.ndarray) -> np.ndarray:
        """One decode step: dequantize everything, then FP attention."""
        if not self._length:
            raise ValueError("attention on an empty cache")
        q = self._check_vec(q_vec, "q_vec")[None, :]
        k_hat, v_hat = self.materialize()
        self.ledger.dequant_flops += costs.kv_dequant_flops_per_iter(
            self.head_dim, self._length
        )
        scores = (q @ k_hat.T) / np.sqrt(self.head_dim)
        probs = softmax(scores, axis=-1)
        out = probs @ v_hat
        self.ledger.fp_matmul_flops += costs.attention_flops(1, self._length, self.head_dim)
        self.ledger.decode_iterations += 1
        return out[0]

    def kv_nbytes(self) -> int:
        """Bytes for packed codes plus FP16 quantization metadata."""
        n_meta = sum(mins.live().size + scales.live().size
                     for _, mins, scales in self._planes)
        return self._code_nbytes + n_meta * _FP16_BYTES


class HackKVCache(_BaseKVCache):
    """HACK's quantized KV cache with SE and RQE (§5.3).

    Parameters
    ----------
    head_dim:
        Per-head embedding width ``d_h``.
    partition_size:
        Π, used for both the head-dimension partitions of K and the
        sequence-dimension partitions of V.
    kv_bits, q_bits, p_bits:
        Code widths (paper defaults 2 / 8 / 8).
    enable_se:
        Store Eq. 4's per-partition code sums instead of recomputing.
    enable_rqe:
        Keep the partial last V block in FP16 instead of requantizing.
    """

    def __init__(
        self,
        head_dim: int,
        partition_size: int = 64,
        kv_bits: int = 2,
        q_bits: int = 8,
        p_bits: int = 8,
        enable_se: bool = True,
        enable_rqe: bool = True,
        rounding: str = "stochastic",
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__(head_dim)
        if head_dim % partition_size and partition_size > head_dim:
            # A Π larger than d_h degenerates to one partition per row.
            partition_size = head_dim
        self.partition_size = partition_size
        self.kv_bits = kv_bits
        self.q_bits = q_bits
        self.p_bits = p_bits
        self.enable_se = enable_se
        self.enable_rqe = enable_rqe
        self.rounding = rounding
        self._rng = rng if rng is not None else np.random.default_rng(0)

        # Kᵀ: one column per token, partitions along the head dimension.
        n_parts_k = -(-head_dim // partition_size)
        self._kt_codes = _Growable(head_dim, np.uint8, axis=1)     # (d, cap)
        self._kt_mins = _Growable(n_parts_k, np.float64, axis=1)   # (P_k, cap)
        self._kt_scales = _Growable(n_parts_k, np.float64, axis=1)
        self._kt_sums = (_Growable(n_parts_k, np.int64, axis=1)
                         if enable_se else None)

        # V: blocks of Π tokens, one metadata row per block.
        self._v_codes = _Growable(head_dim, np.uint8)              # (cap, d)
        self._v_mins = _Growable(head_dim, np.float64)             # (blocks, d)
        self._v_scales = _Growable(head_dim, np.float64)
        self._v_sums = _Growable(head_dim, np.int64) if enable_se else None
        self._n_blocks = 0
        # RQE's partial last block, kept in FP until it fills.
        self._v_tail = np.empty((partition_size, head_dim))
        self._n_tail = 0

    # -- appends ----------------------------------------------------------

    def append(self, k_vec: np.ndarray, v_vec: np.ndarray) -> None:
        """Quantize and store one token's K row; extend V's last block."""
        k_vec = self._check_vec(k_vec, "k_vec")
        v_vec = self._check_vec(v_vec, "v_vec")
        self._append_k(k_vec[None, :])
        self._append_v_row(v_vec)
        self._length += 1

    def append_bulk(self, k: np.ndarray, v: np.ndarray) -> None:
        """Quantize and store many tokens (the prefill→decode handoff)."""
        k = self._check_bulk(k, "k")
        v = self._check_bulk(v, "v")
        if k.shape[0] != v.shape[0]:
            raise ValueError("k and v must hold the same number of tokens")
        if k.shape[0] == 0:
            return
        self._append_k(k)
        for row in v:
            self._append_v_row(row)
        self._length += k.shape[0]

    def _append_k(self, k: np.ndarray) -> None:
        qt = quantize(k, self.kv_bits, axis=1, partition_size=self.partition_size,
                      rng=self._rng, rounding=self.rounding)
        self.ledger.quant_flops += costs.quantize_flops(k.size)
        self._kt_codes.append(qt.codes.T)
        self._kt_mins.append(qt.mins.T)
        self._kt_scales.append(qt.scales.T)
        if self._kt_sums is not None:
            self._kt_sums.append(qt.partition_sums().T)

    def _append_v_row(self, v_vec: np.ndarray) -> None:
        if self.enable_rqe:
            self._v_tail[self._n_tail] = v_vec
            self._n_tail += 1
            if self._n_tail == self.partition_size:
                self._flush_v_tail()
        else:
            self._requantize_v_tail(v_vec)

    def _flush_v_tail(self) -> None:
        """Quantize a now-full FP16 tail into a permanent V block (RQE)."""
        block = self._v_tail
        qt = quantize(block, self.kv_bits, axis=0,
                      partition_size=self.partition_size,
                      rng=self._rng, rounding=self.rounding)
        self.ledger.quant_flops += costs.quantize_flops(block.size)
        self._store_v_block(qt)
        self._n_blocks += 1
        self._n_tail = 0

    def _requantize_v_tail(self, v_vec: np.ndarray) -> None:
        """Faithful no-RQE path: dequantize-extend-requantize (Fig. 8).

        The round trip through the old 2-bit grid is what accumulates
        extra error relative to RQE — the dequantized values, not the
        originals, are requantized under the widened ``[min, max]``.
        """
        if self._v_codes.n == self._n_blocks * self.partition_size:
            rows = v_vec[None, :]
        else:
            old = dequantize(self._v_quantized(first_block=self._n_blocks))
            self.ledger.dequant_flops += costs.dequantize_flops(old.size)
            rows = np.concatenate([old, v_vec[None, :]], axis=0)
            self.ledger.requant_events += 1
        qt = quantize(rows, self.kv_bits, axis=0,
                      partition_size=self.partition_size,
                      rng=self._rng, rounding=self.rounding)
        self.ledger.quant_flops += costs.quantize_flops(rows.size)
        self._store_v_block(qt)
        if rows.shape[0] == self.partition_size:
            self._n_blocks += 1

    def _store_v_block(self, qt: QuantizedTensor) -> None:
        """Write a (possibly partial) quantized block into the next slot."""
        self._v_codes.put(self._n_blocks * self.partition_size, qt.codes)
        self._v_mins.put(self._n_blocks, qt.mins)
        self._v_scales.put(self._n_blocks, qt.scales)
        if self._v_sums is not None:
            self._v_sums.put(self._n_blocks, qt.partition_sums())

    # -- attention ---------------------------------------------------------

    def attention(self, q_vec: np.ndarray) -> np.ndarray:
        """One HACK decode step over the cache — no KV dequantization."""
        if not self._length:
            raise ValueError("attention on an empty cache")
        q = self._check_vec(q_vec, "q_vec")[None, :]
        d = self.head_dim
        length = self._length

        q_q = quantize(q, self.q_bits, axis=1, partition_size=self.partition_size,
                       rng=self._rng, rounding=self.rounding)
        self.ledger.quant_flops += costs.quantize_flops(q.size)

        scores = homomorphic_matmul(q_q, self._k_transposed(),
                                    use_cached_b_sums=self.enable_se)
        scores /= np.sqrt(d)
        probs = softmax(scores, axis=-1)

        out = np.zeros((1, d))
        n_quantized = self._v_codes.n

        if n_quantized:
            p_part = probs[:, :n_quantized]
            p_q = quantize(p_part, self.p_bits, axis=1,
                           partition_size=self.partition_size,
                           rng=self._rng, rounding=self.rounding)
            self.ledger.quant_flops += costs.quantize_flops(p_part.size)
            out += homomorphic_matmul(p_q, self._v_quantized(),
                                      use_cached_b_sums=self.enable_se)
            self.ledger.int_matmul_flops += costs.matmul_flops(1, n_quantized, d)
            self.ledger.approx_flops += costs.approximation_flops(
                1, n_quantized, d, self.enable_se
            )

        n_tail = self._n_tail
        if n_tail:
            out += probs[:, n_quantized:] @ self._v_tail[:n_tail]
            self.ledger.fp_matmul_flops += costs.matmul_flops(1, n_tail, d)

        self.ledger.int_matmul_flops += costs.matmul_flops(1, d, length)
        self.ledger.approx_flops += costs.approximation_flops(
            1, d, length, self.enable_se
        )
        self.ledger.decode_iterations += 1
        return out[0]

    def _k_transposed(self) -> QuantizedTensor:
        """The ``Kᵀ`` operand for Eq. 4: views of the stored columns."""
        return QuantizedTensor(
            codes=self._kt_codes.live(), mins=self._kt_mins.live(),
            scales=self._kt_scales.live(), bits=self.kv_bits, axis=0,
            partition_size=self.partition_size,
            _sums=None if self._kt_sums is None else self._kt_sums.live())

    def _v_quantized(self, first_block: int = 0) -> QuantizedTensor:
        """The quantized-V operand (full blocks + any requantized partial
        block) from ``first_block`` on: views of the stored rows."""
        return QuantizedTensor(
            codes=self._v_codes.live(first_block * self.partition_size),
            mins=self._v_mins.live(first_block),
            scales=self._v_scales.live(first_block), bits=self.kv_bits,
            axis=0, partition_size=self.partition_size,
            _sums=None if self._v_sums is None
            else self._v_sums.live(first_block))

    # -- inspection & accounting -------------------------------------------

    def materialize(self) -> tuple[np.ndarray, np.ndarray]:
        """Reconstruct (K̂, V̂): dequantized codes plus the exact FP tail."""
        k_hat = np.ascontiguousarray(dequantize(self._k_transposed()).T)
        v_hat = np.concatenate([dequantize(self._v_quantized()),
                                self._v_tail[:self._n_tail]], axis=0)
        return k_hat, v_hat

    def kv_nbytes(self) -> int:
        """Bytes for packed codes plus FP16 min/scale metadata."""
        d = self.head_dim
        k_bytes = packed_nbytes(self._length * d, self.kv_bits)
        k_bytes += 2 * self._kt_mins.live().size * _FP16_BYTES
        # Each V block, and a requantized partial block, packs separately.
        block_bytes = packed_nbytes(self.partition_size * d, self.kv_bits)
        v_bytes = self._n_blocks * (block_bytes + 2 * d * _FP16_BYTES)
        n_partial = self._v_codes.n - self._n_blocks * self.partition_size
        if n_partial:
            v_bytes += packed_nbytes(n_partial * d, self.kv_bits)
            v_bytes += 2 * d * _FP16_BYTES
        return k_bytes + v_bytes

    def sums_nbytes(self) -> int:
        """Bytes of SE sum storage (§7.4 reports 2.2–2.7% of GPU memory)."""
        if not self.enable_se:
            return 0
        width = sum_storage_bits(self.kv_bits, self.partition_size) // 8
        n_k = self._kt_sums.live().size
        n_v = self._n_blocks * self.head_dim
        return (n_k + n_v) * width

    def fp16_tail_nbytes(self) -> int:
        """Bytes of the RQE FP16 buffer (§7.4 reports 0.24–0.51%)."""
        return self._n_tail * self.head_dim * _FP16_BYTES

    def total_nbytes(self) -> int:
        """Full cache footprint: codes, metadata, SE sums, RQE tail."""
        return self.kv_nbytes() + self.sums_nbytes() + self.fp16_tail_nbytes()
