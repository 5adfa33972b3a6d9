"""AWS GPU instance catalogue (paper Table 2).

The experiments pick prefill fleets from the four cheap-GPU instance
types and run decode on ``p4de.24xlarge`` (8×A100, 400 Gbps).  The
instance's network bandwidth is the quantity the KV-transfer bottleneck
analysis revolves around: 10–50 Gbps for the cheap instances versus
400 Gbps for the A100 boxes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gpu import GPUS, GPUSpec, get_gpu

__all__ = ["InstanceSpec", "INSTANCES", "get_instance", "instance_for_gpu",
           "DEFAULT_PREFILL_FLEETS", "parse_fleet_spec",
           "canonical_fleet"]


@dataclass(frozen=True)
class InstanceSpec:
    """One cloud instance type."""

    name: str
    gpu: GPUSpec
    n_gpus: int
    network_gbps: float
    vcpus: int
    ram_gib: int


#: Table 2 verbatim.
INSTANCES: dict[str, InstanceSpec] = {
    "g5.12xlarge": InstanceSpec("g5.12xlarge", GPUS["A10G"], 4, 40.0, 48, 192),
    "p3.8xlarge": InstanceSpec("p3.8xlarge", GPUS["V100"], 4, 10.0, 32, 244),
    "g4dn.12xlarge": InstanceSpec("g4dn.12xlarge", GPUS["T4"], 4, 50.0, 48, 192),
    "g6.12xlarge": InstanceSpec("g6.12xlarge", GPUS["L4"], 4, 40.0, 48, 192),
    "p4de.24xlarge": InstanceSpec("p4de.24xlarge", GPUS["A100"], 8, 400.0, 96, 1152),
}

#: GPU name → the instance type that carries it in the paper.
_GPU_TO_INSTANCE = {
    "A10G": "g5.12xlarge",
    "V100": "p3.8xlarge",
    "T4": "g4dn.12xlarge",
    "L4": "g6.12xlarge",
    "A100": "p4de.24xlarge",
}

#: Fleet sizes from §7.1: "ten g5.12xlarge, sixteen p3.8xlarge, sixteen
#: g4dn.12xlarge, ten g6.12xlarge, or two p4de.24xlarge for prefill".
DEFAULT_PREFILL_FLEETS: dict[str, int] = {
    "A10G": 10,
    "V100": 16,
    "T4": 16,
    "L4": 10,
    "A100": 2,
}

#: Decode always runs on "two p4de.24xlarge" (§7.1).
DEFAULT_DECODE_COUNT = 2


def get_instance(name: str) -> InstanceSpec:
    """Look up an instance type by its AWS name."""
    if name not in INSTANCES:
        raise KeyError(f"unknown instance {name!r}; choose from {sorted(INSTANCES)}")
    return INSTANCES[name]


def instance_for_gpu(gpu_name: str) -> InstanceSpec:
    """The instance type the paper uses for a given GPU."""
    key = gpu_name.upper()
    if key not in _GPU_TO_INSTANCE:
        raise KeyError(f"no instance mapped for GPU {gpu_name!r}")
    return INSTANCES[_GPU_TO_INSTANCE[key]]


def parse_fleet_spec(text: str) -> tuple[tuple[str, int | None], ...]:
    """Parse a prefill-fleet reference into ``(gpu, replicas)`` pairs.

    The grammar extends a plain GPU name to heterogeneous fleets::

        A10G            # one fleet, §7.1 default replica count
        A10G+T4         # two fleets, each at its default count
        A10G:2+T4:4     # explicit per-fleet *replica* counts

    GPU names uppercase and must name a known GPU; a count (after
    ``:``) must be a positive integer; ``None`` means "derive from the
    paper's default instance fleet".  Repeating a GPU type is rejected
    (merge the counts instead).
    """
    fleets: list[tuple[str, int | None]] = []
    seen: set[str] = set()
    for part in text.strip().split("+"):
        part = part.strip()
        gpu, sep, count_text = part.partition(":")
        gpu = gpu.strip().upper()
        if not gpu:
            raise ValueError(
                f"bad fleet spec {text!r}; the grammar is "
                "GPU[:replicas][+GPU[:replicas]…]"
            )
        try:
            get_gpu(gpu)
        except KeyError as exc:
            raise ValueError(f"fleet spec {text!r}: {exc.args[0]}") from None
        if gpu in seen:
            raise ValueError(
                f"fleet spec {text!r} repeats GPU {gpu!r}; merge the "
                "replica counts instead"
            )
        seen.add(gpu)
        count: int | None = None
        if sep:
            try:
                count = int(count_text.strip())
            except ValueError:
                raise ValueError(
                    f"bad replica count {count_text.strip()!r} for GPU "
                    f"{gpu!r} in fleet spec {text!r}"
                ) from None
            if count < 1:
                raise ValueError(
                    f"fleet replica count must be >= 1, got {count} for "
                    f"GPU {gpu!r}"
                )
        fleets.append((gpu, count))
    return tuple(fleets)


def canonical_fleet(fleets: tuple[tuple[str, int], ...]) -> str:
    """The canonical string of resolved ``(gpu, replicas)`` fleets,
    e.g. ``"A10G:5+T4:4"``."""
    return "+".join(f"{gpu}:{count}" for gpu, count in fleets)
