"""End-to-end method descriptors.

A :class:`Method` bundles everything the performance model and the
simulator need to know about one system under comparison:

* how many bytes per KV scalar cross the wire and sit in decode memory,
* whether every decode iteration pays a full-cache dequantization
  (CacheGen / KVQuant / FP-format conversion on pre-H100 GPUs),
* whether attention matmuls run on integer tensor cores (HACK),
* whether the Eq. 4 correction terms are paid per iteration, and with
  which partition size / SE setting,
* whether the one-time KV quantization cost applies.

The registry in :mod:`repro.methods.registry` instantiates the paper's
method set from these knobs — no method-specific branches exist in the
performance model itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.quantize import sum_storage_bits

__all__ = ["Method", "quantized_bytes_per_value", "FP16_BYTES"]

FP16_BYTES = 2.0


def quantized_bytes_per_value(bits: int, partition_size: int,
                              include_sums: bool = False) -> float:
    """Stored bytes per KV scalar for partitioned asymmetric quantization.

    Codes (``bits``/8) plus FP16 min+scale per partition (4/Π) plus,
    optionally, the SE sum storage (§5.3/§6 width rules).
    """
    per_value = bits / 8.0 + 4.0 / partition_size
    if include_sums:
        per_value += sum_storage_bits(bits, partition_size) / 8.0 / partition_size
    return per_value


@dataclass(frozen=True)
class Method:
    """One system under comparison (see module docstring)."""

    name: str
    display_name: str
    #: Bytes per KV scalar sent prefill → decode.
    kv_wire_bytes_per_value: float
    #: Bytes per KV scalar resident in decode memory (incl. SE sums).
    kv_mem_bytes_per_value: float
    #: Full-cache dequantization every decode iteration (§2.2).
    dequant_per_iter: bool = False
    #: Relative cost of that dequantization pass (KVQuant's nuq codebook
    #: gather plus sparse-outlier scatter is costlier than CacheGen's
    #: dense-grid decode, which is why Fig. 9/11/12 show KVQuant
    #: consistently a few percent behind CacheGen).
    dequant_traffic_scale: float = 1.0
    #: Attention matmuls run on INT8 tensor cores where available.
    int8_attention: bool = False
    #: Additional integer-compute gain over the INT8 path (the §8
    #: future-work CUDA INT4 kernel: 2-bit codes computed at INT4 rates
    #: instead of being widened to INT8 first).  1.0 = plain INT8.
    int_compute_gain: float = 1.0
    #: Simulated FP8 attention (§3: matmul time halved), no INT8 path.
    fp8_attention_sim: bool = False
    #: Eq. 4 correction terms paid per decode iteration.
    approx_per_iter: bool = False
    #: One-time KV quantization cost on the prefill instance.
    quantize_cost: bool = False
    #: HACK knobs (ignored unless ``approx_per_iter``).
    partition_size: int = 64
    summation_elimination: bool = True
    requant_elimination: bool = True

    @property
    def compression_ratio(self) -> float:
        """Wire-size reduction vs FP16, in [0, 1)."""
        return 1.0 - self.kv_wire_bytes_per_value / FP16_BYTES

    def __post_init__(self) -> None:
        if self.kv_wire_bytes_per_value <= 0:
            raise ValueError("kv_wire_bytes_per_value must be positive")
        if self.kv_mem_bytes_per_value < self.kv_wire_bytes_per_value:
            raise ValueError(
                "resident KV cannot be smaller than wire KV (sums and "
                "buffers only add bytes)"
            )
        if self.int8_attention and self.fp8_attention_sim:
            raise ValueError("choose at most one attention acceleration")
