"""Capacity estimation: "RPS set to the maximum processing capacity" (§7.1).

The experiments load the cluster at (a fraction of) the *baseline*
system's sustainable rate, so that the baseline saturates while better
methods retain headroom — the regime in which the paper's JCT gaps
appear.  Capacity is the minimum of the prefill-stage and decode-stage
service rates for the given workload.
"""

from __future__ import annotations

from ..cluster.parallelism import replica_resources
from ..methods.registry import get_method
from ..model.config import ModelSpec
from ..perfmodel.calibration import Calibration, DEFAULT_CALIBRATION
from ..perfmodel.decode import BatchCostModel
from ..perfmodel.prefill import prefill_time
from ..perfmodel.transfer import transfer_time
from ..workload.datasets import DatasetSpec, get_dataset
from .engine import MEM_RESERVE_FRACTION, PREFILL_TOKEN_BUDGET, \
    ClusterConfig, default_cluster

__all__ = ["stage_capacities", "capacity_rps", "experiment_rps",
           "clipped_mean_lengths"]


def clipped_mean_lengths(dataset: DatasetSpec, max_context: int,
                         ) -> tuple[int, int]:
    """Mean (input, output) lengths under the model's context window.

    Mirrors the clipping :func:`repro.workload.generate_trace` applies
    per request: outputs are truncated to ``max_context - 1`` first,
    then inputs so ``input + output <= max_context``.  Capacity used to
    cap inputs at ``max_context - 1`` alone, sizing the cluster for
    requests longer than the trace actually replays on context-limited
    models (Falcon's 2K window on arXiv) and skewing
    :func:`experiment_rps`.
    """
    mean_out = int(round(min(dataset.output_len.mean, max_context - 1)))
    mean_in = int(round(min(dataset.input_len.mean, max_context - mean_out)))
    return max(1, mean_in), max(1, mean_out)


def stage_capacities(config: ClusterConfig, dataset: DatasetSpec,
                     ) -> tuple[float, float, float]:
    """(prefill_rps, nic_rps, decode_rps) sustainable by the cluster.

    Prefill: one request at a time per replica at the mean prompt
    length.  NIC: each prefill replica's NIC serializes its outgoing KV
    transfers.  Decode: each replica runs a memory-capped batch; its
    rate is ``batch / (output_len · iteration latency)``.  Prefill and
    NIC rates sum over the (possibly heterogeneous) prefill fleets.
    """
    spec = config.model
    calib = config.calib
    mean_in, mean_out = clipped_mean_lengths(dataset, spec.max_context)

    dec = config.decode_replica()
    # Batched prefill: short prompts share a forward pass up to the
    # token budget; the pass pays the joint linear time plus each
    # request's own quadratic attention.
    per_batch = max(1, PREFILL_TOKEN_BUDGET // mean_in)
    prefill_rps = 0.0
    nic_rps = 0.0
    for gpu, count in config.fleet_list():
        pre = replica_resources(spec, gpu)
        own = prefill_time(spec, pre, mean_in, config.method, calib)
        joint = prefill_time(spec, pre, per_batch * mean_in, config.method,
                             calib)
        batch_s = (joint.linear_s + joint.quantize_s
                   + per_batch * own.attention_s)
        prefill_rps += count * per_batch / batch_s
        # NIC occupancy is the *full* transfer time even under
        # pipelining — overlap hides latency from the request, not load
        # from the NIC — so the capacity bound deliberately never
        # passes ``pipelined=True``.
        comm_s = transfer_time(spec, config.method, mean_in, pre, dec, calib)
        nic_rps += count / comm_s
    params = spec.param_bytes()
    capacity = (dec.mem_gb * 1e9 * (1 - MEM_RESERVE_FRACTION)
                - params * (1 + config.activation_overhead))
    per_request = (mean_in + mean_out) * spec.kv_bytes_per_token(
        config.method.kv_mem_bytes_per_value
    )
    batch = max(1, int(capacity / per_request))
    timing = BatchCostModel(spec, dec, config.method, calib).iteration(
        [mean_in + mean_out // 2] * batch)
    decode_time = mean_out * timing.latency_s
    decode_rps = config.n_decode_replicas * batch / decode_time
    return prefill_rps, nic_rps, decode_rps


def capacity_rps(config: ClusterConfig, dataset: DatasetSpec) -> float:
    """Bottleneck-stage capacity of ``config`` on ``dataset``."""
    return min(stage_capacities(config, dataset))


def experiment_rps(model: ModelSpec, prefill_gpu: str, dataset: str | DatasetSpec,
                   calib: Calibration = DEFAULT_CALIBRATION,
                   load_factor: float = 1.0) -> float:
    """The trace rate used by the JCT experiments.

    ``load_factor`` scales the *baseline* system's capacity; 1.0 loads
    the cluster exactly at the baseline's sustainable rate — the
    paper's "maximum processing capacity" convention — so the baseline
    queues while compressed methods keep headroom.
    """
    spec = dataset if isinstance(dataset, DatasetSpec) else get_dataset(dataset)
    config = default_cluster(model, get_method("baseline"), prefill_gpu, calib)
    return capacity_rps(config, spec) * load_factor
