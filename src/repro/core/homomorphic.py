"""Homomorphic quantized matrix multiplication (paper §5.2, Eq. 4).

For ``C = A @ B`` with ``A`` quantized per row-partition and ``B`` per
column-partition, each entry of the product expands as

    Σ_z a_iz · b_zj  ≈  s_ai·s_bj·Σ_z a'_iz·b'_zj          (integer matmul)
                       + m_bj·s_ai·Σ_z a'_iz               (A row sums)
                       + m_ai·s_bj·Σ_z b'_zj               (B column sums)
                       + Z·m_ai·m_bj                       (constant term)

where primes denote integer codes and ``m``/``s`` the per-partition
minimum and scale.  The first term is the only O(M·Z·N) work and runs on
integer codes (INT8 tensor cores on the real hardware); the three
correction terms cost ``9MN + MZ + NZ`` flops (§5.2), and the ``NZ``
part — the B column sums — is cached by the SE optimization (§5.3).

Crucially Eq. 4 is an *identity* on the quantized lattice: the result
equals ``dequantize(A') @ dequantize(B')`` exactly (up to float
round-off).  The only approximation error in HACK is the quantization
error itself, never the homomorphic evaluation.  The test suite checks
this invariant with hypothesis.
"""

from __future__ import annotations

import numpy as np

from .quantize import QuantizedTensor

__all__ = [
    "homomorphic_matmul",
    "homomorphic_matmul_blocked",
    "integer_matmul",
    "transpose",
]


def transpose(qt: QuantizedTensor) -> QuantizedTensor:
    """Transpose a quantized tensor, flipping the partitioned axis.

    Quantizing ``K`` row-wise (one token per row, partitions along the
    head dimension) and transposing yields exactly the operand layout
    ``Kᵀ`` needs as the right-hand side of ``Q·Kᵀ``.  All arrays are
    numpy views — no copies.
    """
    return QuantizedTensor(
        codes=qt.codes.T,
        mins=qt.mins.T,
        scales=qt.scales.T,
        bits=qt.bits,
        axis=1 - qt.axis,
        partition_size=qt.partition_size,
        _sums=None if qt._sums is None else qt._sums.T,
    )


def integer_matmul(qa: QuantizedTensor, qb: QuantizedTensor) -> np.ndarray:
    """The raw integer-code product ``A' @ B'`` summed over all partitions.

    This is the portion of Eq. 4 that the GPU evaluates with INT8 tensor
    cores; exposed separately so benchmarks can time it in isolation.
    """
    _check_operands(qa, qb)
    return qa.codes.astype(np.int64) @ qb.codes.astype(np.int64)


def homomorphic_matmul(
    qa: QuantizedTensor,
    qb: QuantizedTensor,
    use_cached_b_sums: bool = True,
) -> np.ndarray:
    """Evaluate ``dequant(A') @ dequant(B')`` without dequantizing.

    Parameters
    ----------
    qa:
        Left operand, quantized with ``axis == 1`` (row partitions).
    qb:
        Right operand, quantized with ``axis == 0`` (column partitions)
        and the same partition boundaries as ``qa``.
    use_cached_b_sums:
        When True (SE optimization), reuse ``qb``'s memoized partition
        sums; when False, recompute them — functionally identical, but
        the performance model charges the recomputation cost.

    Returns
    -------
    np.ndarray
        Float matrix of shape ``(M, N)``.
    """
    _check_operands(qa, qb)
    (m, z), n = qa.codes.shape, qb.codes.shape[1]
    pi = qa.partition_size
    n_parts = -(-z // pi)
    # Codes zero-padded to whole partitions: (P, M, Π) and (P, Π, N).
    # Padding contributes nothing to any product or sum, so a ragged
    # last partition needs only its true width in the constant term.
    # The batched float product is the integer matmul exactly as long
    # as a partition's largest code-product sum is an integer the float
    # type holds exactly: float32 up to 2**24 (HACK's 8-bit × 2-bit
    # codes with Π=64 reach 48960), float64 up to 2**53 otherwise.
    largest = ((1 << qa.bits) - 1) * ((1 << qb.bits) - 1) * pi
    dtype = np.float32 if largest <= 1 << 24 else np.float64
    a = _padded(qa.codes.T, n_parts * pi, dtype).T
    a = a.reshape(m, n_parts, pi).transpose(1, 0, 2)
    b = _padded(qb.codes, n_parts * pi, dtype).reshape(n_parts, pi, n)
    widths = np.minimum(pi, z - pi * np.arange(n_parts))[:, None, None]

    int_prod = a @ b                                   # (P, M, N)
    a_sum = a.sum(axis=2)[:, :, None]                  # (P, M, 1)
    b_sums = qb.partition_sums(cached=use_cached_b_sums)[:, None, :]
    s_a = qa.scales.T[:, :, None]                      # (P, M, 1)
    m_a = qa.mins.T[:, :, None]
    s_b = qb.scales[:, None, :]                        # (P, 1, N)
    m_b = qb.mins[:, None, :]
    partials = (
        s_a * s_b * int_prod
        + m_b * (s_a * a_sum)
        + m_a * (s_b * b_sums)
        + widths * m_a * m_b
    )
    # Summed in partition order from zero: the association every
    # caller's results (and the golden pins) were computed with.
    out = np.zeros((m, n))
    for part in partials:
        out += part
    return out


def _padded(codes: np.ndarray, rows: int, dtype) -> np.ndarray:
    """``codes`` as ``dtype``, zero-padded below to ``rows`` rows."""
    out = np.empty((rows, codes.shape[1]), dtype)
    out[:codes.shape[0]] = codes
    out[codes.shape[0]:] = 0
    return out


def homomorphic_matmul_blocked(
    qa_blocks: list[QuantizedTensor],
    qb_blocks: list[QuantizedTensor],
    use_cached_b_sums: bool = True,
) -> np.ndarray:
    """Blocked evaluation (paper Fig. 6(b)): ``A·B = Σ_k A_k · B_k``.

    The inner dimension is split into blocks, each block quantized and
    multiplied independently via Eq. 4, and the partial products summed.
    This is how the FlashAttention-style kernel consumes the KV cache
    block by block.  Equals the unblocked product when the block
    boundaries align with partition boundaries.
    """
    if len(qa_blocks) != len(qb_blocks):
        raise ValueError(
            f"mismatched block counts: {len(qa_blocks)} vs {len(qb_blocks)}"
        )
    if not qa_blocks:
        raise ValueError("at least one block is required")
    out = homomorphic_matmul(qa_blocks[0], qb_blocks[0], use_cached_b_sums)
    for qa, qb in zip(qa_blocks[1:], qb_blocks[1:]):
        out += homomorphic_matmul(qa, qb, use_cached_b_sums)
    return out


def _check_operands(qa: QuantizedTensor, qb: QuantizedTensor) -> None:
    if qa.axis != 1:
        raise ValueError(f"left operand must be quantized along axis 1, got {qa.axis}")
    if qb.axis != 0:
        raise ValueError(f"right operand must be quantized along axis 0, got {qb.axis}")
    if qa.codes.shape[1] != qb.codes.shape[0]:
        raise ValueError(
            f"inner dimensions differ: {qa.codes.shape} @ {qb.codes.shape}"
        )
    if qa.partition_size != qb.partition_size:
        raise ValueError(
            "operands must share a partition size, got "
            f"{qa.partition_size} and {qb.partition_size}"
        )
