"""Cluster substrate: GPUs, instances, parallelism and the network."""

from .gpu import GPUS, GPUSpec, get_gpu
from .instances import (
    DEFAULT_DECODE_COUNT,
    DEFAULT_PREFILL_FLEETS,
    INSTANCES,
    InstanceSpec,
    canonical_fleet,
    get_instance,
    instance_for_gpu,
    parse_fleet_spec,
)
from .network import NetworkModel, TransferResult
from .parallelism import (
    ParallelismConfig,
    ReplicaResources,
    get_parallelism,
    replica_resources,
)

__all__ = [
    "GPUSpec",
    "GPUS",
    "get_gpu",
    "InstanceSpec",
    "INSTANCES",
    "get_instance",
    "instance_for_gpu",
    "DEFAULT_PREFILL_FLEETS",
    "DEFAULT_DECODE_COUNT",
    "parse_fleet_spec",
    "canonical_fleet",
    "NetworkModel",
    "TransferResult",
    "ParallelismConfig",
    "ReplicaResources",
    "get_parallelism",
    "replica_resources",
]
