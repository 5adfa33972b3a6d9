"""Asymmetric partitioned quantization (paper §5.2, Fig. 6).

A matrix that participates in a matmul ``C = A @ B`` is quantized along
its *inner* dimension: rows of ``A`` and columns of ``B`` are split into
partitions of ``partition_size`` (Π) elements.  Each partition stores a
``min`` and a ``scale = (max - min) / (2**bits - 1)``, and every element
is mapped to the integer code ``round((x - min) / scale)``.

The quantized representation is *asymmetric* (a non-zero ``min`` per
partition) and uses *stochastic rounding* by default, both choices the
paper makes to reduce quantization error relative to symmetric /
nearest-rounding schemes (§9, TurboAttention comparison).

``QuantizedTensor`` keeps the codes unpacked (one uint8 per code) for
fast numpy matmuls — the packed byte representation used for storage
and transmission accounting lives in :mod:`repro.core.packing`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .packing import packed_nbytes
from .rounding import nearest_round, stochastic_round

__all__ = [
    "QuantizedTensor",
    "quantize",
    "dequantize",
    "partition_bounds",
    "sum_storage_bits",
]

_FP16_BYTES = 2


def partition_bounds(length: int, partition_size: int) -> list[tuple[int, int]]:
    """Split ``range(length)`` into contiguous partitions.

    All partitions have ``partition_size`` elements except possibly the
    last, which may be shorter (a "ragged" tail).  The paper requires Π
    to be a multiple of 16 for GPU efficiency; this software
    implementation accepts any positive Π and any tail length so that
    requantization of partially-filled partitions (the behaviour RQE
    eliminates) can be modelled faithfully.
    """
    if partition_size <= 0:
        raise ValueError(f"partition_size must be positive, got {partition_size}")
    if length < 0:
        raise ValueError(f"length must be non-negative, got {length}")
    bounds = []
    start = 0
    while start < length:
        end = min(start + partition_size, length)
        bounds.append((start, end))
        start = end
    return bounds


def sum_storage_bits(bits: int, partition_size: int) -> int:
    """Bits needed to store a partition's integer code sum (§5.3, §6).

    A partition of Π codes of ``bits`` bits sums to at most
    ``(2**bits - 1) * Π``, which needs ``bits + ceil(log2 Π)`` bits.
    Widths that do not align with natural memory boundaries are rounded
    up to 16 bits, exactly as the paper's implementation stores INT16
    sums for 2-bit quantization with Π=128 (9 bits → INT16).
    """
    raw = bits + math.ceil(math.log2(partition_size)) if partition_size > 1 else bits
    if raw <= 8:
        return 8
    return 16 if raw <= 16 else 32


@dataclass
class QuantizedTensor:
    """A 2-D tensor quantized per-partition along one axis.

    Attributes
    ----------
    codes:
        Integer codes, same shape as the original matrix, dtype uint8.
    mins, scales:
        Per-partition minimum and scale.  For ``axis == 1`` (partitions
        along columns, i.e. the rows of the left matmul operand) the
        shape is ``(n_rows, n_partitions)``; for ``axis == 0`` it is
        ``(n_partitions, n_cols)``.  ``scales`` is 0 for constant
        partitions, in which case every code is 0 and dequantization
        returns ``min`` exactly.
    bits:
        Code width in bits.
    axis:
        The partitioned (inner) axis: 1 partitions each row, 0
        partitions each column.
    partition_size:
        Π, the maximum number of elements per partition.
    """

    codes: np.ndarray
    mins: np.ndarray
    scales: np.ndarray
    bits: int
    axis: int
    partition_size: int
    _sums: np.ndarray | None = field(default=None, repr=False)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.codes.shape

    @property
    def n_partitions(self) -> int:
        return len(self.bounds())

    def bounds(self) -> list[tuple[int, int]]:
        """Partition boundaries along the quantized axis."""
        return partition_bounds(self.codes.shape[self.axis], self.partition_size)

    def partition_sums(self, cached: bool = True) -> np.ndarray:
        """Per-partition sums of the integer codes (the Σ b' of Eq. 4).

        With ``cached=True`` (the SE optimization, §5.3) the sums are
        computed once and memoized; subsequent calls return the stored
        array.  With ``cached=False`` they are recomputed every call,
        which is the behaviour of the HACK/SE ablation.
        """
        if cached and self._sums is not None:
            return self._sums
        sums = _partition_reduce(self.codes, self.axis, self.partition_size,
                                 np.add, dtype=np.int64)
        if cached:
            self._sums = sums
        return sums

    # -- memory accounting ------------------------------------------------

    def code_nbytes(self) -> int:
        """Bytes for the packed code storage."""
        return packed_nbytes(self.codes.size, self.bits)

    def metadata_nbytes(self) -> int:
        """Bytes for FP16 ``min`` and ``scale`` values (§6)."""
        return (self.mins.size + self.scales.size) * _FP16_BYTES

    def sums_nbytes(self) -> int:
        """Bytes for the stored partition sums under SE (§5.3, §6)."""
        return self.mins.size * sum_storage_bits(self.bits, self.partition_size) // 8

    def total_nbytes(self, with_sums: bool = True) -> int:
        """Total storage footprint of this quantized tensor."""
        total = self.code_nbytes() + self.metadata_nbytes()
        if with_sums:
            total += self.sums_nbytes()
        return total


def quantize(
    x: np.ndarray,
    bits: int,
    axis: int,
    partition_size: int,
    rng: np.random.Generator | None = None,
    rounding: str = "stochastic",
) -> QuantizedTensor:
    """Quantize a 2-D matrix with per-partition asymmetric quantization.

    Parameters
    ----------
    x:
        Matrix to quantize, shape ``(rows, cols)``.
    bits:
        Code width; the paper uses 2 for K/V and 8 for Q and P.
    axis:
        Inner (partitioned) axis — see :class:`QuantizedTensor`.
    partition_size:
        Π.  Smaller values quantize more finely (higher accuracy,
        more metadata and more correction-term work).
    rng:
        Randomness for stochastic rounding.  Ignored for
        ``rounding="nearest"``.
    rounding:
        ``"stochastic"`` (paper default) or ``"nearest"`` (ablation).

    Returns
    -------
    QuantizedTensor
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"quantize expects a 2-D matrix, got shape {x.shape}")
    if axis not in (0, 1):
        raise ValueError(f"axis must be 0 or 1, got {axis}")
    if not 1 <= bits <= 8:
        raise ValueError(f"bits must be in [1, 8], got {bits}")
    if rounding not in ("stochastic", "nearest"):
        raise ValueError(f"unknown rounding mode {rounding!r}")
    if partition_size <= 0:
        raise ValueError(f"partition_size must be positive, got {partition_size}")

    levels = (1 << bits) - 1
    mins = _partition_reduce(x, axis, partition_size, np.minimum)
    maxs = _partition_reduce(x, axis, partition_size, np.maximum)
    scales = (maxs - mins) / levels
    # Constant partitions quantize to code 0 and dequantize to `min`
    # exactly; dividing by 1 instead of 0 keeps the arithmetic finite.
    safe_scales = np.where(scales == 0.0, 1.0, scales)

    codes = np.empty(x.shape, dtype=np.uint8)
    for lo, n, width in _batches(x.shape, axis, partition_size):
        normalized = _view(x, axis, lo, n, width) - _meta_view(
            mins, axis, lo // partition_size, n)
        normalized /= _meta_view(safe_scales, axis, lo // partition_size, n)
        if rounding == "stochastic":
            rounded = stochastic_round(normalized, rng)
        else:
            rounded = nearest_round(normalized)
        _view(codes, axis, lo, n, width)[...] = np.clip(rounded, 0, levels,
                                                        out=rounded)

    return QuantizedTensor(
        codes=codes,
        mins=mins,
        scales=scales,
        bits=bits,
        axis=axis,
        partition_size=partition_size,
    )


def dequantize(qt: QuantizedTensor) -> np.ndarray:
    """Reconstruct the real-valued matrix: ``x ≈ scale * code + min``.

    This is the operation HACK *avoids* on the critical path; it exists
    here as the reference the homomorphic matmul is verified against,
    and as the per-iteration cost the comparator methods pay.
    """
    out = np.empty(qt.codes.shape, dtype=np.float64)
    for lo, n, width in _batches(qt.codes.shape, qt.axis, qt.partition_size):
        p = lo // qt.partition_size
        dst = _view(out, qt.axis, lo, n, width)
        np.multiply(_view(qt.codes, qt.axis, lo, n, width),
                    _meta_view(qt.scales, qt.axis, p, n), out=dst)
        dst += _meta_view(qt.mins, qt.axis, p, n)
    return out


#: Upper bound on the elements one batch of partitions spans (unless a
#: single partition is larger), which bounds the temporaries of
#: :func:`quantize` and :func:`dequantize` on large matrices.
_BATCH_ELEMENTS = 1 << 16


def _batches(shape: tuple[int, int], axis: int, partition_size: int):
    """Runs of equal-width partitions along ``axis``, in partition order.

    Yields ``(start, count, width)``: the full partitions in runs of up
    to :data:`_BATCH_ELEMENTS` elements, then any ragged tail as a run
    of one.  A decode-sized matrix is a single run.
    """
    n_full, tail = divmod(shape[axis], partition_size)
    per_partition = partition_size * shape[1 - axis]
    step = max(1, _BATCH_ELEMENTS // max(1, per_partition))
    for p in range(0, n_full, step):
        yield p * partition_size, min(step, n_full - p), partition_size
    if tail:
        yield n_full * partition_size, 1, tail


def _view(a: np.ndarray, axis: int, start: int, count: int,
          width: int) -> np.ndarray:
    """``count`` partitions of ``width`` from ``start``, partition-major.

    Shape ``(count, rows, width)`` for ``axis=1`` and ``(count, width,
    cols)`` for ``axis=0``.  Its C order is the order in which a loop
    over the partitions visits the elements, so one stochastic draw per
    run consumes the generator exactly as one draw per partition does.
    The view is writable when ``a`` is C-contiguous.
    """
    stop = start + count * width
    if axis == 1:
        return a[:, start:stop].reshape(a.shape[0], count, width).transpose(1, 0, 2)
    return a[start:stop].reshape(count, width, a.shape[1])


def _meta_view(meta: np.ndarray, axis: int, first: int,
               count: int) -> np.ndarray:
    """Partitions ``first…first+count`` of ``meta``, broadcastable
    against the matching :func:`_view`."""
    if axis == 1:
        return meta[:, first:first + count].T[:, :, None]
    return meta[first:first + count, None, :]


def _partition_reduce(x: np.ndarray, axis: int, partition_size: int,
                      ufunc: np.ufunc, dtype=None) -> np.ndarray:
    """Reduce ``x`` with ``ufunc`` within each partition along ``axis``."""
    starts = np.arange(0, x.shape[axis], partition_size)
    return ufunc.reduceat(x, starts, axis=axis, dtype=dtype)
