"""GPU specifications for the paper's testbed (Table 2 hardware).

Peak rates are the published tensor-core numbers (dense FP16 / INT8)
and HBM/GDDR bandwidths.  Two properties matter to the experiments:

* ``supports_int8_matmul`` — the V100's tensor cores predate INT8
  matmul support, which is why HACK's compute acceleration vanishes on
  V100 prefill instances (Fig. 12 discussion);
* ``supports_fp8`` — pre-H100 GPUs lack FP8 compute, the §3 limitation
  of low-precision FP formats.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["GPUSpec", "GPUS", "get_gpu"]


@dataclass(frozen=True)
class GPUSpec:
    """Peak capability numbers for one GPU model."""

    name: str
    fp16_tflops: float          # dense FP16 tensor throughput
    int8_tops: float            # dense INT8 tensor throughput (0 if absent)
    mem_gb: float               # usable device memory
    mem_bw_gbps: float          # device memory bandwidth, GB/s
    supports_fp8: bool = False

    @property
    def supports_int8_matmul(self) -> bool:
        """Whether tensor cores accelerate INT8 matmul (V100: no)."""
        return self.int8_tops > 0


#: The five GPU models of Table 2.
GPUS: dict[str, GPUSpec] = {
    "A10G": GPUSpec("A10G", fp16_tflops=125.0, int8_tops=250.0,
                    mem_gb=24.0, mem_bw_gbps=600.0),
    "V100": GPUSpec("V100", fp16_tflops=112.0, int8_tops=0.0,
                    mem_gb=16.0, mem_bw_gbps=900.0),
    "T4": GPUSpec("T4", fp16_tflops=65.0, int8_tops=130.0,
                  mem_gb=16.0, mem_bw_gbps=300.0),
    "L4": GPUSpec("L4", fp16_tflops=121.0, int8_tops=242.0,
                  mem_gb=24.0, mem_bw_gbps=300.0),
    "A100": GPUSpec("A100", fp16_tflops=312.0, int8_tops=624.0,
                    mem_gb=80.0, mem_bw_gbps=2039.0),
}


def get_gpu(name: str) -> GPUSpec:
    """Look up a GPU by name (case-insensitive)."""
    key = name.upper()
    if key not in GPUS:
        raise KeyError(f"unknown GPU {name!r}; choose from {sorted(GPUS)}")
    return GPUS[key]
