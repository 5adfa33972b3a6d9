"""KV transfer timing between prefill and decode replicas.

Glue between the :class:`~repro.methods.base.Method` byte accounting
and the :class:`~repro.cluster.network.NetworkModel`: computes the wire
size of a request's KV under a method and the resulting transfer time,
with optional layer-wise pipelining (§2.1) and the CPU-swap detour
(§5.1 step 6).
"""

from __future__ import annotations

from ..cluster.network import NetworkModel
from ..cluster.parallelism import ReplicaResources
from ..methods.base import Method
from ..model.config import ModelSpec
from .calibration import Calibration, DEFAULT_CALIBRATION

__all__ = ["kv_wire_bytes", "transfer_time", "make_network_model",
           "DEFAULT_PIPELINE_STAGES"]

#: Granularity of transfer/compute overlap under layer-wise pipelining.
#: KV is shipped per *pipeline stage*, not per layer — the engine's
#: long-standing convention, which this module previously contradicted
#: by overlapping at ``n_layers`` granularity and so under-reported the
#: exposed tail ~10×.  Roughly 1/8 of the transfer stays exposed even
#: under perfect overlap.
DEFAULT_PIPELINE_STAGES = 8


def make_network_model(calib: Calibration = DEFAULT_CALIBRATION) -> NetworkModel:
    """Network model with the calibration's efficiency and latency."""
    return NetworkModel(efficiency=calib.net_efficiency,
                        latency_s=calib.net_latency_s)


def kv_wire_bytes(spec: ModelSpec, method: Method, prompt_len: int) -> float:
    """Bytes of KV (plus quantization metadata) shipped for one request."""
    if prompt_len < 1:
        raise ValueError(f"prompt_len must be >= 1, got {prompt_len}")
    return prompt_len * spec.kv_bytes_per_token(method.kv_wire_bytes_per_value)


def transfer_time(
    spec: ModelSpec,
    method: Method,
    prompt_len: int,
    prefill_replica: ReplicaResources,
    decode_replica: ReplicaResources,
    calib: Calibration = DEFAULT_CALIBRATION,
    pipelined: bool = False,
    prefill_compute_s: float = 0.0,
    via_cpu: bool = False,
    n_stages: int = DEFAULT_PIPELINE_STAGES,
) -> float:
    """Seconds of *exposed* KV transfer time for one request.

    With ``pipelined=True`` the transfer overlaps the request's own
    prefill compute at ``n_stages`` granularity (the engine's
    per-pipeline-stage shipping, not per layer); ``via_cpu`` models the
    swap path (which also makes pipelining infeasible, §2.1 case ii).
    """
    net = make_network_model(calib)
    nbytes = kv_wire_bytes(spec, method, prompt_len)
    sender = prefill_replica.network_gbps
    receiver = decode_replica.network_gbps
    if via_cpu:
        return net.transfer_time(nbytes, sender, receiver, via_cpu=True).seconds
    if pipelined:
        return net.pipelined_exposed_time(nbytes, sender, receiver,
                                          compute_s=prefill_compute_s,
                                          n_stages=n_stages)
    return net.transfer_time(nbytes, sender, receiver).seconds
