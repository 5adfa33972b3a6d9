"""Discrete-event simulator of disaggregated LLM serving (§7.1 setup).

Faithfully implements the paper's serving policy (by default — both
scheduling decisions are pluggable, see :mod:`repro.sim.scheduling`):

* requests arrive (Poisson trace) and are dispatched to a prefill
  replica by the configured :class:`~repro.sim.scheduling
  .PrefillDispatchPolicy` — default: shortest queue in tokens
  [SplitWise].  Prefill fleets may be *heterogeneous* (mixed GPU types
  with per-fleet replica counts, ``ClusterConfig.prefill_fleets``), in
  which case each replica prefills and transfers at its own fleet's
  speed;
* a prefill replica serves one request at a time (long-prompt prefill
  saturates the replica's compute);
* finished KV is shipped to the decode replica chosen by the configured
  :class:`~repro.sim.scheduling.DecodePlacementPolicy` — default: the
  shortest queue *that has enough free memory for the request's full
  context*; when no replica has room, the KV is swapped to prefill CPU
  memory [DéjàVu] and transferred once memory frees (§5.1 step 6) — or
  rejected outright under a ``no_swap`` placement — each prefill
  replica's NIC serializes its outgoing transfers;
* decode replicas run continuous batching: each iteration produces one
  token per active request, with latency from
  :class:`repro.perfmodel.decode.BatchCostModel`; requests join at
  iteration boundaries and leave when their output length is reached;
* optional layer-wise pipelining overlaps a request's KV transfer with
  its own prefill (§2.1, Fig. 1(d)) — infeasible for swapped requests.

Every scenario runs one code path.  The optional subsystems — the KV
store and per-request compression selection (:mod:`repro.kvstore`),
fault injection and recovery (:mod:`repro.sim.faults`,
:mod:`repro.sim.recovery`), autoscaling and admission
(:mod:`repro.sim.elastic`) — are components the engine always
consults.  Left unconfigured, each is its do-nothing default: no store
and no selection policy (every request prefills with the scenario
method), an empty fault timeline, the ``static`` autoscaler and
``accept_all`` admission.  These add no events and no output keys;
the :class:`ClusterConfig` fields decide only which summary blocks and
per-request keys an artifact carries.

Per-iteration wall-clock is attributed to the Fig. 10 buckets
proportionally to the batch's component sums, so a request's "dequant"
share reflects the dequantization phases it actually waits through.

Decode stepping runs in one of two modes (``ClusterConfig.step_mode``):

* ``"span"`` (default) — *event-to-event fast-forwarding*: between
  batch-composition changes (a join via ``transfer_done``, the earliest
  finishing request, or swapped-KV admission) the engine advances all
  ``k`` iterations in a single heap event, using the closed-form span
  sums of :meth:`~repro.perfmodel.decode.BatchCostModel.span_vectors`,
  evaluated once per span from exact batch sums each replica keeps
  up to date.  A request joining mid-span truncates the span at the
  end of the iteration in progress — exactly where the token path
  would have admitted it — so the two modes agree to floating-point
  rounding.
  Each settled span is one entry in its replica's *span ledger*; a
  request is credited the in-order sum of its ledger slice once, when
  it finishes (or its replica crashes), bit-identical to crediting
  every span as it settles.
* ``"token"`` — the legacy one-heap-event-per-token path, kept for
  differential testing.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass, field
from functools import reduce
from operator import add

import numpy as np

from ..cluster.instances import DEFAULT_DECODE_COUNT, DEFAULT_PREFILL_FLEETS, \
    canonical_fleet, instance_for_gpu, parse_fleet_spec
from ..cluster.parallelism import ReplicaResources, replica_resources
from ..kvstore.selection import SelectionSpec
from ..kvstore.spec import KVStoreSpec
from ..methods.base import Method
from ..model.config import ModelSpec
from ..perfmodel.calibration import Calibration, DEFAULT_CALIBRATION
from ..perfmodel.decode import BatchCostModel, SpanVectors
from ..perfmodel.prefill import prefill_time
from ..perfmodel.transfer import DEFAULT_PIPELINE_STAGES, kv_wire_bytes, \
    make_network_model
from ..spec import check_count, check_real
from ..workload.traces import TraceRequest
from .elastic import AdmissionSpec, AutoscalerSpec, DEFAULT_ADMISSION, \
    DEFAULT_AUTOSCALER
from .faults import FaultPlan
from .recovery import DEFAULT_RECOVERY, RecoverySpec
from .request import BUCKETS, SimRequest, nearest_rank
from .scheduling import SchedulerSpec

__all__ = ["ClusterConfig", "SimulationResult", "Simulator", "simulate",
           "default_cluster", "CLUSTER_SPEC_FIELDS", "DEFAULT_TTFT_SLO_S",
           "DEFAULT_TBT_SLO_S", "MEM_RESERVE_FRACTION",
           "PREFILL_TOKEN_BUDGET"]

_GB = 1e9
#: Token times of a ledger entry that completes no iteration.
_NO_TIMES = np.empty(0, dtype=np.float64)

#: Fraction of decode-GPU memory held back from the KV budget.
MEM_RESERVE_FRACTION = 0.03
#: Prompt tokens a prefill replica batches into one forward pass
#: (vLLM's batched prefill).  Long prompts run alone; short prompts
#: share a pass, which is what gives short-prompt datasets their high
#: prefill throughput.
PREFILL_TOKEN_BUDGET = 16384

#: Default service-level objectives for :meth:`SimulationResult.summary`.
#: TTFT covers queueing + a long-prompt prefill pass on the §7.1
#: clusters; TBT bounds the steady decode cadence.  Both are
#: recomputable at any other point from the per-request records.
DEFAULT_TTFT_SLO_S = 20.0
DEFAULT_TBT_SLO_S = 0.5

#: The spec-valued :class:`ClusterConfig` fields and the spec type each
#: coerces to: ``__post_init__`` turns a grammar string (or, for
#: ``faults``, a single :class:`~repro.sim.faults.FaultSpec`) into that
#: type, and ``None`` leaves the field unset.  A test checks it against
#: :data:`repro.api.fields.SPEC_FIELDS`.
CLUSTER_SPEC_FIELDS: tuple[tuple[str, type], ...] = (
    ("scheduler", SchedulerSpec),
    ("kvstore", KVStoreSpec),
    ("selection", SelectionSpec),
    ("faults", FaultPlan),
    ("recovery", RecoverySpec),
    ("autoscaler", AutoscalerSpec),
    ("admission", AdmissionSpec),
)


@dataclass(frozen=True)
class ClusterConfig:
    """Static description of the simulated deployment."""

    model: ModelSpec
    method: Method
    prefill_gpu: str
    n_prefill_replicas: int
    n_decode_replicas: int
    calib: Calibration = DEFAULT_CALIBRATION
    pipelining: bool = False
    decode_gpu: str = "A100"
    #: Activation/workspace reservation as a fraction of parameter
    #: bytes.  Serving engines preallocate activation buffers, CUDA
    #: graphs and scratch alongside the weights; ~45% of parameter
    #: bytes reproduces Table 5's ~65% idle floor on the decode GPUs.
    activation_overhead: float = 0.45
    #: Decode stepping: ``"span"`` fast-forwards whole runs of
    #: iterations between batch-composition changes in one heap event
    #: (closed-form latency sums); ``"token"`` is the legacy
    #: one-event-per-token path kept for differential testing.
    step_mode: str = "span"
    #: Heterogeneous prefill fleets as resolved ``(gpu, replicas)``
    #: pairs; ``None`` means one homogeneous fleet of
    #: ``n_prefill_replicas`` × ``prefill_gpu`` (the historical,
    #: paper-faithful shape).  When set, ``n_prefill_replicas`` must
    #: equal the summed per-fleet counts.
    prefill_fleets: tuple[tuple[str, int], ...] | None = None
    #: Dispatch/placement policy pair; ``None`` keeps the paper's
    #: §7.1 pair (``splitwise`` + ``shortest_queue``).
    scheduler: SchedulerSpec | None = None
    #: Tiered KV store for prefix caching (``None`` — the default — is
    #: no store at all: nothing is probed or written back).  Accepts a
    #: :class:`~repro.kvstore.KVStoreSpec` or grammar string
    #: (``"tiered?dram_gb=8.0+lfu"``).
    kvstore: KVStoreSpec | None = None
    #: Per-request compression-selection policy; ``None`` keeps the
    #: scenario's single method for every request.  Accepts a
    #: :class:`~repro.kvstore.SelectionSpec` or grammar string
    #: (``"slo_tier?tier2=hack_int4"``).  Configuring either ``kvstore``
    #: or ``selection`` stamps each request's method on its record.
    selection: SelectionSpec | None = None
    #: Fault-injection plan (``None`` — the default — injects nothing:
    #: an empty timeline, no events and no ``faults`` summary block).
    #: Accepts a :class:`~repro.sim.faults.FaultPlan`, a
    #: :class:`~repro.sim.faults.FaultSpec` or a grammar string
    #: (``"replica_crash?mttf=600+transfer_flap?p_fail=0.05"``).
    faults: FaultPlan | None = None
    #: Recovery policy for fault-interrupted requests; only meaningful
    #: when ``faults`` is set (``None`` then means the default
    #: ``retry`` policy).  Accepts a
    #: :class:`~repro.sim.recovery.RecoverySpec` or grammar string.
    recovery: RecoverySpec | None = None
    #: Autoscaler powering provisioned replicas up and down (``None``
    #: — the default — runs the ``static`` policy: the whole fleet
    #: stays powered, no events, no ``elastic`` summary block; the
    #: explicit ``static`` adds only that block).  Accepts an
    #: :class:`~repro.sim.elastic.AutoscalerSpec` or grammar string
    #: (``"reactive?queue_hi=6.0"``).
    autoscaler: AutoscalerSpec | None = None
    #: Admission policy judging every fresh arrival (``None`` — the
    #: default — accepts everything, as does the explicit
    #: ``accept_all``).  Accepts an
    #: :class:`~repro.sim.elastic.AdmissionSpec` or grammar string
    #: (``"shed?queue_max=48.0"``).
    admission: AdmissionSpec | None = None

    def __post_init__(self) -> None:
        check_count("n_prefill_replicas", self.n_prefill_replicas)
        check_count("n_decode_replicas", self.n_decode_replicas)
        check_real("activation_overhead", self.activation_overhead,
                   positive=False)
        if self.step_mode not in ("span", "token"):
            raise ValueError(
                f"step_mode must be 'span' or 'token', got "
                f"{self.step_mode!r}"
            )
        for name, spec in CLUSTER_SPEC_FIELDS:
            value = getattr(self, name)
            if value is not None:
                # A grammar string fails fast here, not at Simulator
                # construction.
                object.__setattr__(self, name, spec.from_reference(value))
        if self.prefill_fleets is not None:
            if not self.prefill_fleets:
                raise ValueError("prefill_fleets must name >= 1 fleet")
            for gpu, count in self.prefill_fleets:
                if count < 1:
                    raise ValueError(
                        f"fleet replica count must be >= 1, got {count} "
                        f"for GPU {gpu!r}"
                    )
            total = sum(count for _, count in self.prefill_fleets)
            if total != self.n_prefill_replicas:
                raise ValueError(
                    f"n_prefill_replicas={self.n_prefill_replicas} does "
                    f"not match the summed fleet counts ({total}); "
                    "replica-count overrides do not compose with an "
                    "explicit heterogeneous fleet"
                )

    def fleet_list(self) -> tuple[tuple[str, int], ...]:
        """Resolved prefill fleets: ``(gpu, replicas)`` per fleet."""
        if self.prefill_fleets is not None:
            return self.prefill_fleets
        return ((self.prefill_gpu, self.n_prefill_replicas),)

    def prefill_replica(self) -> ReplicaResources:
        """Resources of one prefill replica.

        Only meaningful for a homogeneous fleet; a heterogeneous config
        has no single answer, so this raises — resolve per fleet via
        :meth:`fleet_list` + :func:`repro.cluster.replica_resources`
        instead (as the engine and capacity model do).
        """
        if self.prefill_fleets is not None:
            raise ValueError(
                "prefill_replica() is ambiguous for a heterogeneous "
                f"fleet ({self.prefill_gpu}); resolve per fleet via "
                "fleet_list()"
            )
        return replica_resources(self.model, self.prefill_gpu)

    def decode_replica(self) -> ReplicaResources:
        return replica_resources(self.model, self.decode_gpu)


def _default_fleet_replicas(model: ModelSpec, gpu: str) -> int:
    """§7.1 replica count of ``gpu``'s default instance fleet."""
    n_instances = DEFAULT_PREFILL_FLEETS[gpu]
    pre = replica_resources(model, gpu)
    inst = instance_for_gpu(gpu)
    return max(1, n_instances * inst.n_gpus // pre.parallelism.n_gpus)


def default_cluster(model: ModelSpec, method: Method, prefill_gpu: str,
                    calib: Calibration = DEFAULT_CALIBRATION,
                    pipelining: bool = False,
                    n_prefill_instances: int | None = None,
                    n_decode_instances: int = DEFAULT_DECODE_COUNT,
                    decode_gpu: str = "A100",
                    activation_overhead: float | None = None,
                    **fields) -> ClusterConfig:
    """The paper's §7.1 deployment for ``model`` on ``prefill_gpu``.

    Replica counts derive from the instance fleets (e.g. ten
    g5.12xlarge = 40 A10G = 5 Llama-70B replicas at TP4·PP2) and two
    p4de.24xlarge for decode.  ``decode_gpu`` swaps the decode fleet's
    GPU (default A100, the paper's setup); ``activation_overhead=None``
    keeps the :class:`ClusterConfig` default.

    ``prefill_gpu`` accepts the heterogeneous-fleet grammar of
    :func:`repro.cluster.parse_fleet_spec` — ``"A10G+T4"`` (each fleet
    at its §7.1 default replica count) or ``"A10G:2+T4:4"`` (explicit
    per-fleet replica counts).  ``n_prefill_instances`` only applies to
    a single plain-GPU fleet.

    Every other keyword is a :class:`ClusterConfig` field and goes to
    it unchanged: ``step_mode``, ``n_prefill_replicas`` or
    ``n_decode_replicas`` (overriding the derived counts), or a spec
    field of :data:`CLUSTER_SPEC_FIELDS` — a spec object or grammar
    string such as ``scheduler="round_robin+best_fit"``, which
    :class:`ClusterConfig` coerces; ``None`` leaves it unset.
    """
    fleets = parse_fleet_spec(prefill_gpu)
    dec_gpu = decode_gpu.upper()
    if n_prefill_instances is not None and (
        len(fleets) > 1 or fleets[0][1] is not None
    ):
        raise ValueError(
            "n_prefill_instances only applies to a single plain-GPU "
            f"fleet, not {prefill_gpu!r}; give per-fleet replica counts "
            "as GPU:replicas instead"
        )
    resolved: list[tuple[str, int]] = []
    for gpu, count in fleets:
        if count is None:
            if n_prefill_instances is not None:
                pre = replica_resources(model, gpu)
                inst = instance_for_gpu(gpu)
                count = max(1, n_prefill_instances * inst.n_gpus
                            // pre.parallelism.n_gpus)
            else:
                count = _default_fleet_replicas(model, gpu)
        resolved.append((gpu, count))
    dec = replica_resources(model, dec_gpu)
    dec_inst = instance_for_gpu(dec_gpu)
    n_decode = max(1, n_decode_instances * dec_inst.n_gpus
                   // dec.parallelism.n_gpus)
    fields = {"n_prefill_replicas": sum(count for _, count in resolved),
              "n_decode_replicas": n_decode, **fields}
    if activation_overhead is not None:
        fields["activation_overhead"] = activation_overhead
    if len(resolved) > 1:
        fields["prefill_fleets"] = tuple(resolved)
        gpu_label = canonical_fleet(tuple(resolved))
    else:
        gpu_label = resolved[0][0]
    return ClusterConfig(model=model, method=method, prefill_gpu=gpu_label,
                         calib=calib, pipelining=pipelining,
                         decode_gpu=dec_gpu, **fields)


@dataclass
class _PrefillReplica:
    #: GPU type and per-replica resources — these differ across fleets
    #: under heterogeneous prefill (``ClusterConfig.prefill_fleets``)
    #: and are what dispatch policies exploit.
    gpu: str = ""
    res: ReplicaResources | None = None
    queue: deque = field(default_factory=deque)
    queued_tokens: int = 0
    current: SimRequest | None = None
    nic_free_at: float = 0.0
    assigned: int = 0
    # Fault-injection state (inert without a fault plan).
    up: bool = True
    #: Overlapping crash specs stack; the replica is up when this is 0.
    down_count: int = 0
    #: Stale-event guard: bumped on every crash, stamped into this
    #: replica's in-flight event payloads.
    epoch: int = 0
    # Elastic-lifecycle state (inert without an autoscaler): a replica
    # serves only while "on"; "starting" is a boot with cold-start
    # latency pending, "draining" takes no new work and retires to
    # "off" once idle.
    state: str = "on"
    #: Stale-boot guard: bumped when a boot starts or is canceled.
    lifecycle: int = 0
    #: When the current powered stretch began (GPU-hour accrual).
    on_since: float = 0.0
    #: Accumulated powered GPU-seconds from *retired* stretches.
    gpu_s: float = 0.0


@dataclass
class _DecodeReplica:
    capacity_bytes: float
    base_bytes: float              # params + activations
    used_bytes: float = 0.0
    peak_bytes: float = 0.0
    #: ``[request, remaining]`` per request; span mode appends, once the
    #: request enters its first span, ``end`` (the clock at which it
    #: finishes), ``base`` (its context length is ``base + clock``) and
    #: ``start`` (its first ledger index).
    active: list = field(default_factory=list)
    #: Exact running sums over the started entries ``active[:n_started]``
    #: — all a span's closed form needs: Σ base, the counts of
    #: ``(-base) mod Π`` (Eq. 4 methods only, else None) and a heap of
    #: the ``end`` clocks.
    sum_base: int = 0
    base_hist: np.ndarray | None = None
    ends: list = field(default_factory=list)
    queued_tokens: int = 0
    iteration_scheduled: bool = False
    assigned: int = 0
    # Span-mode state (valid while a span event is in flight).
    span_id: int = 0               # stale-event guard; bumped per span
    span_start: float = 0.0
    #: The in-flight span's per-prefix totals: cumulative latency and
    #: bucket sums after each iteration.
    span: SpanVectors | None = None
    #: A truncated span settled early; its boundary event will take a
    #: fresh batch snapshot, so later joins need no further interrupt.
    boundary_pending: bool = False
    #: Span ledger: one entry per settle, shared by every request in the
    #: batch that ran it.  A request is credited the in-order sum of its
    #: slice ``[start:]`` once, when it finishes or its replica crashes.
    ledger_k: list = field(default_factory=list)
    ledger_decode: list = field(default_factory=list)
    ledger_dequant: list = field(default_factory=list)
    ledger_approx: list = field(default_factory=list)
    ledger_kv_read: list = field(default_factory=list)
    #: Token completion times of each entry's iterations.
    ledger_times: list = field(default_factory=list)
    #: Iterations settled so far (an un-credited iteration counts back).
    clock: int = 0
    #: ``active[:n_started]`` have entered a span; later entries joined
    #: since the last span was scheduled.
    n_started: int = 0
    # Fault-injection state (inert without a fault plan).
    up: bool = True
    down_count: int = 0
    epoch: int = 0
    # Elastic-lifecycle state (inert without an autoscaler).
    state: str = "on"
    lifecycle: int = 0
    on_since: float = 0.0
    gpu_s: float = 0.0

    def append_ledger(self, k: int, decode_s: float, dequant_s: float,
                      approx_s: float, kv_read_s: float,
                      times: np.ndarray) -> None:
        """Book ``k`` iterations (``-1`` takes one back)."""
        self.ledger_k.append(k)
        self.ledger_decode.append(decode_s)
        self.ledger_dequant.append(dequant_s)
        self.ledger_approx.append(approx_s)
        self.ledger_kv_read.append(kv_read_s)
        self.ledger_times.append(times)
        self.clock += k

    def clear_ledger(self) -> None:
        """Drop every entry (no started request refers to the ledger)."""
        for entries in (self.ledger_k, self.ledger_decode,
                        self.ledger_dequant, self.ledger_approx,
                        self.ledger_kv_read, self.ledger_times):
            entries.clear()

    def credit(self, entry: list) -> None:
        """Accrue one request's ledger slice to its buckets in one call.

        Each bucket is summed left to right from 0.0, the order in
        which per-span ``+=`` accrual would have added the same terms,
        so the totals are bit-identical to it.  (The built-in ``sum``
        is compensated from Python 3.12 on, so it is not used here.)
        """
        start = entry[4]
        entry[0].accrue_decode(
            reduce(add, self.ledger_decode[start:], 0.0),
            reduce(add, self.ledger_dequant[start:], 0.0),
            reduce(add, self.ledger_approx[start:], 0.0),
            reduce(add, self.ledger_kv_read[start:], 0.0),
            tokens=sum(self.ledger_k[start:]))

    def start(self, entry: list) -> None:
        """Add an entry entering its first span to the running sums."""
        self.sum_base += entry[3]
        heapq.heappush(self.ends, entry[2])
        if self.base_hist is not None:
            self.base_hist[-entry[3] % self.base_hist.size] += 1

    def stop(self, entry: list) -> None:
        """Take a finished entry out of the running sums.  Entries
        finish at the heap's minimum clock, so popping the minimum once
        per finisher leaves the heap exact."""
        self.sum_base -= entry[3]
        heapq.heappop(self.ends)
        if self.base_hist is not None:
            self.base_hist[-entry[3] % self.base_hist.size] -= 1

    def clear_sums(self) -> None:
        """Empty the running sums (the whole batch is gone)."""
        self.sum_base = 0
        self.ends.clear()
        if self.base_hist is not None:
            self.base_hist.fill(0)

    def free_bytes(self) -> float:
        # A crashed (or draining / powered-off) replica reports
        # negative free space so every placement policy's room check
        # excludes it without needing to know about faults or scaling.
        if not self.up or self.state != "on":
            return -1.0
        return self.capacity_bytes - self.used_bytes


@dataclass
class SimulationResult:
    """Finished requests plus cluster-level statistics.

    ``requests`` may be empty (a ``no_swap`` placement can reject every
    request of a trace); all aggregates degrade to empty/zero values
    rather than raising, so summaries stay JSON-serializable.
    """

    requests: list[SimRequest]
    peak_memory_fraction: float
    n_swapped: int
    config: ClusterConfig
    #: Requests refused admission by a non-swapping placement policy
    #: (they prefill but never decode and are absent from ``requests``).
    n_rejected: int = 0
    #: KV-store counters (:meth:`repro.kvstore.TieredKVStore.stats`):
    #: hit rate, prefill tokens skipped, per-tier occupancy/bytes/
    #: evictions.  ``None`` unless the run had a ``kvstore`` configured.
    kvstore_stats: dict | None = None
    #: ``{slo_tier: {method_name: n_requests}}`` — which compression
    #: method the selection policy chose, per service class.  ``None``
    #: unless the run had a ``selection`` policy configured.
    selection_mix: dict | None = None
    #: The rejected requests themselves (``n_rejected`` == their count;
    #: they appear in :meth:`to_records` with terminal ``rejected``).
    rejected_requests: list = field(default_factory=list)
    #: Requests the recovery policy gave up on (fault injection only;
    #: terminal ``failed``).
    failed_requests: list = field(default_factory=list)
    #: Whether the run had a fault plan configured (drives the
    #: ``faults`` summary block even when nothing happened to fail).
    faulted: bool = False
    #: Elastic-cluster statistics: scaling-event counts, mean/peak
    #: powered replicas, accrued GPU-hours, shed/degraded counts plus
    #: the live ``events``/``timeseries`` lists (those two stay out of
    #: the summary).  ``None`` unless the run configured an
    #: ``autoscaler`` or ``admission`` policy.
    elastic_stats: dict | None = None

    def avg_jct(self) -> float:
        """Mean job completion time across all requests (Fig. 9 metric)."""
        if not self.requests:
            return 0.0
        return sum(r.jct for r in self.requests) / len(self.requests)

    def generated_tokens(self) -> int:
        """Decode tokens produced across all requests (the unit of the
        simulator-throughput benchmark)."""
        return sum(r.tokens_generated for r in self.requests)

    def mean_decomposition(self) -> dict[str, float]:
        """Mean seconds per bucket (Fig. 10 bars); all-zero when no
        request finished."""
        if not self.requests:
            return {k: 0.0 for k in BUCKETS}
        decomps = [r.decomposition() for r in self.requests]
        n = len(decomps)
        return {k: sum(d[k] for d in decomps) / n for k in decomps[0]}

    def mean_ratios(self, include_queue: bool = False) -> dict[str, float]:
        """Mean per-request bucket ratios (the Fig. 1–4 metric)."""
        if not self.requests:
            keys = BUCKETS if include_queue else \
                tuple(k for k in BUCKETS if k != "queue")
            return {k: 0.0 for k in keys}
        ratio_dicts = [r.ratios(include_queue) for r in self.requests]
        keys = ratio_dicts[0].keys()
        n = len(ratio_dicts)
        return {k: sum(d[k] for d in ratio_dicts) / n for k in keys}

    def mean_kv_access_ratio(self) -> float:
        """KV HBM read time as a fraction of JCT (§2.1's 16–33% metric)."""
        if not self.requests:
            return 0.0
        return sum(r.kv_access_s / r.jct for r in self.requests) / len(
            self.requests
        )

    # -- serving metrics (TTFT / TBT / SLO) -----------------------------------

    def ttfts(self) -> list[float]:
        """Per-request time to first token (arrival → prefill end)."""
        return [r.ttft for r in self.requests]

    def ttft_percentile(self, p: float) -> float:
        """TTFT at percentile ``p`` (nearest-rank)."""
        return nearest_rank(sorted(self.ttfts()), p)

    def tbt_gaps(self) -> np.ndarray:
        """All inter-token gaps, pooled across requests (ascending)."""
        parts = [r.tbt_gaps() for r in self.requests]
        parts = [p for p in parts if p.size]
        if not parts:
            return np.empty(0, dtype=np.float64)
        return np.sort(np.concatenate(parts))

    def tbt_percentile(self, p: float) -> float:
        """Pooled time-between-tokens at percentile ``p`` (nearest-rank)."""
        return nearest_rank(self.tbt_gaps(), p)

    def mean_normalized_latency(self) -> float:
        """Mean JCT per output token (DistServe's normalized latency)."""
        if not self.requests:
            return 0.0
        return sum(r.normalized_latency for r in self.requests) / len(
            self.requests
        )

    def makespan_s(self) -> float:
        """First arrival → last completion (0 when nothing finished)."""
        if not self.requests:
            return 0.0
        return (max(r.finish for r in self.requests)
                - min(r.arrival for r in self.requests))

    def slo_attainment(self, ttft_slo_s: float = DEFAULT_TTFT_SLO_S,
                       tbt_slo_s: float = DEFAULT_TBT_SLO_S) -> float:
        """Fraction of requests meeting both SLOs.

        A request attains when its TTFT is within ``ttft_slo_s`` *and*
        its own p99 inter-token gap is within ``tbt_slo_s`` (the
        KVServe/DistServe-style joint criterion; single-token requests
        have no gaps and attain on TTFT alone).
        """
        if not self.requests:
            return 0.0
        met = sum(1 for r in self.requests
                  if r.ttft <= ttft_slo_s
                  and r.tbt_percentile(99) <= tbt_slo_s)
        return met / len(self.requests)

    def slo_goodput_rps(self, ttft_slo_s: float = DEFAULT_TTFT_SLO_S,
                        tbt_slo_s: float = DEFAULT_TBT_SLO_S) -> float:
        """SLO-attaining requests served per second of makespan."""
        return self._goodput(self.slo_attainment(ttft_slo_s, tbt_slo_s))

    def _goodput(self, attainment: float) -> float:
        # A zero-width makespan (degenerate single-instant run, or no
        # finished requests at all) is zero goodput, not infinite: a
        # float("inf") here used to leak non-compliant ``Infinity``
        # tokens into artifact JSON via json.dump.
        span = self.makespan_s()
        if span <= 0:
            return 0.0
        return attainment * len(self.requests) / span

    # -- cost-efficiency metrics (GPU-hours) ----------------------------------

    def gpu_hours(self) -> float:
        """GPU-hours the run consumed.

        Elastic runs accrue this exactly from the replica lifecycle
        (powered stretches × GPUs per replica, cold starts and drains
        included).  Static fleets backfill the same quantity as every
        provisioned GPU powered from t=0 to the last terminal event —
        the same window the elastic accrual covers — so elastic and
        static runs compare directly.
        """
        if self.elastic_stats is not None:
            return self.elastic_stats["gpu_hours"]
        n_gpus = sum(
            replica_resources(self.config.model, gpu).parallelism.n_gpus
            * count for gpu, count in self.config.fleet_list())
        n_gpus += (self.config.n_decode_replicas
                   * self.config.decode_replica().parallelism.n_gpus)
        end = max((r.finish for r in self.requests), default=0.0)
        return n_gpus * end / 3600.0

    def goodput_per_gpu_hour(
            self, ttft_slo_s: float = DEFAULT_TTFT_SLO_S,
            tbt_slo_s: float = DEFAULT_TBT_SLO_S) -> float:
        """SLO-attaining requests served per GPU-hour consumed — the
        cost-efficiency metric elastic scaling optimizes."""
        hours = self.gpu_hours()
        if hours <= 0:
            return 0.0
        return self.slo_attainment(ttft_slo_s, tbt_slo_s) \
            * len(self.requests) / hours

    def terminal_requests(self) -> list:
        """Every request that reached a terminal state — finished,
        rejected or failed — in request-id order."""
        out = [*self.requests, *self.rejected_requests,
               *self.failed_requests]
        out.sort(key=lambda r: r.request_id)
        return out

    # -- reliability metrics (fault injection) ---------------------------------

    def availability(self) -> float:
        """Fraction of terminal requests that finished (1.0 when
        nothing was rejected or failed)."""
        total = (len(self.requests) + len(self.rejected_requests)
                 + len(self.failed_requests))
        if total == 0:
            return 0.0
        return len(self.requests) / total

    def wasted_compute_s(self) -> float:
        """Processing seconds faults threw away, over all requests."""
        return sum(r.wasted_compute_s for r in self.terminal_requests())

    def wasted_work_fraction(self) -> float:
        """Wasted seconds over all processing seconds spent (useful +
        wasted); 0 when the cluster did no work at all."""
        wasted = self.wasted_compute_s()
        useful = sum(r.busy_s() for r in self.requests)
        total = wasted + useful
        return wasted / total if total > 0 else 0.0

    def goodput_under_faults_rps(
            self, ttft_slo_s: float = DEFAULT_TTFT_SLO_S,
            tbt_slo_s: float = DEFAULT_TBT_SLO_S) -> float:
        """SLO-attaining *finished* requests per second of the offered
        period — first arrival of any terminal request to the last
        completion — so shed and failed load drags goodput down instead
        of silently shrinking the denominator."""
        if not self.requests:
            return 0.0
        terminal = self.terminal_requests()
        span = (max(r.finish for r in self.requests)
                - min(r.arrival for r in terminal))
        if span <= 0:
            return 0.0
        met = self.slo_attainment(ttft_slo_s, tbt_slo_s) \
            * len(self.requests)
        return met / span

    def to_records(self) -> list[dict]:
        """Per-request JSON-ready records (artifact schema v4): every
        terminal request — finished, rejected and failed — in
        request-id order, each carrying its ``terminal`` state."""
        return [r.record() for r in self.terminal_requests()]

    def summary(self, ttft_slo_s: float = DEFAULT_TTFT_SLO_S,
                tbt_slo_s: float = DEFAULT_TBT_SLO_S) -> dict:
        """Cluster-level statistics as a flat JSON-ready mapping.

        Schema v2: the v1 keys are unchanged; TTFT/TBT percentiles,
        normalized latency and SLO attainment/goodput (evaluated at the
        given SLO point) are appended.  Schema v3 appends ``kvstore``
        and/or ``selection_mix`` — but only when the run configured
        those layers, so every pre-existing summary is unchanged.
        Schema v4 appends ``n_failed`` (always) and a ``faults`` block
        with the reliability metrics — availability, retry counts,
        wasted work, goodput under faults — when the run had a fault
        plan configured.  Schema v5 appends the cost-efficiency pair
        ``gpu_hours`` / ``goodput_per_gpu_hour`` (always — static
        fleets backfill replicas × makespan) and an ``elastic`` block
        when the run configured an autoscaler or admission policy.
        """
        jcts = sorted(r.jct for r in self.requests)
        ttfts = sorted(self.ttfts())
        gaps = self.tbt_gaps()
        attainment = self.slo_attainment(ttft_slo_s, tbt_slo_s)
        out = {
            "n_requests": len(jcts),
            "avg_jct_s": self.avg_jct(),
            "p50_jct_s": nearest_rank(jcts, 50),
            "p95_jct_s": nearest_rank(jcts, 95),
            "p99_jct_s": nearest_rank(jcts, 99),
            "max_jct_s": jcts[-1] if jcts else 0.0,
            "mean_decomposition_s": self.mean_decomposition(),
            "peak_memory_fraction": self.peak_memory_fraction,
            "n_swapped": self.n_swapped,
            "n_rejected": self.n_rejected,
            "n_failed": len(self.failed_requests),
            "mean_ttft_s": sum(ttfts) / len(ttfts) if ttfts else 0.0,
            "p50_ttft_s": nearest_rank(ttfts, 50),
            "p95_ttft_s": nearest_rank(ttfts, 95),
            "p99_ttft_s": nearest_rank(ttfts, 99),
            "mean_tbt_s": float(gaps.mean()) if gaps.size else 0.0,
            "p50_tbt_s": nearest_rank(gaps, 50),
            "p95_tbt_s": nearest_rank(gaps, 95),
            "p99_tbt_s": nearest_rank(gaps, 99),
            "mean_normalized_latency_s": self.mean_normalized_latency(),
            "slo_ttft_s": ttft_slo_s,
            "slo_tbt_s": tbt_slo_s,
            "slo_attainment": attainment,
            "slo_goodput_rps": self._goodput(attainment),
            "gpu_hours": self.gpu_hours(),
            "goodput_per_gpu_hour":
                self.goodput_per_gpu_hour(ttft_slo_s, tbt_slo_s),
        }
        if self.kvstore_stats is not None:
            out["kvstore"] = self.kvstore_stats
        if self.selection_mix is not None:
            out["selection_mix"] = self.selection_mix
        if self.faulted:
            terminal = self.terminal_requests()
            out["faults"] = {
                "availability": self.availability(),
                "n_failed": len(self.failed_requests),
                "n_recovered": sum(1 for r in self.requests
                                   if r.recovered),
                "n_retries": sum(r.n_retries for r in terminal),
                "wasted_compute_s": self.wasted_compute_s(),
                "wasted_work_fraction": self.wasted_work_fraction(),
                "goodput_under_faults_rps":
                    self.goodput_under_faults_rps(ttft_slo_s, tbt_slo_s),
            }
        if self.elastic_stats is not None:
            block = {k: v for k, v in self.elastic_stats.items()
                     if k not in ("events", "timeseries")}
            block["goodput_per_gpu_hour"] = \
                self.goodput_per_gpu_hour(ttft_slo_s, tbt_slo_s)
            out["elastic"] = block
        return out


class Simulator:
    """Event-driven simulation of one cluster serving one trace."""

    def __init__(self, config: ClusterConfig, trace: list[TraceRequest]) -> None:
        if not trace:
            raise ValueError("trace must contain at least one request")
        for tr in trace:
            if tr.input_len < 1 or tr.output_len < 1:
                raise ValueError(
                    f"request {tr.request_id} needs input_len >= 1 and "
                    f"output_len >= 1, got ({tr.input_len}, "
                    f"{tr.output_len})"
                )
        self.config = config
        self.trace = trace
        self.calib = config.calib
        self.spec = config.model
        self.method = config.method
        self.dec_res = config.decode_replica()
        self.net = make_network_model(self.calib)
        self.step_mode = config.step_mode
        self.cost_model = BatchCostModel(self.spec, self.dec_res,
                                         self.method, self.calib)

        self._events: list = []
        self._seq = itertools.count()
        self._prefill = []
        for gpu, count in config.fleet_list():
            res = replica_resources(self.spec, gpu)
            self._prefill.extend(_PrefillReplica(gpu=gpu, res=res)
                                 for _ in range(count))
        params = self.spec.param_bytes()
        base = params * (1.0 + config.activation_overhead)
        capacity = (self.dec_res.mem_gb * _GB
                    * (1.0 - MEM_RESERVE_FRACTION) - base)
        if capacity <= 0:
            raise ValueError(
                f"decode replica memory too small for {self.spec.name}"
            )
        period = self.cost_model.stair_period
        self._decode = [
            _DecodeReplica(capacity_bytes=capacity, base_bytes=base,
                           base_hist=(np.zeros(period, dtype=np.int64)
                                      if period else None))
            for _ in range(config.n_decode_replicas)
        ]
        self._pending_swap: deque = deque()
        self._finished: list[SimRequest] = []
        self._rejected: list[SimRequest] = []
        self._n_swapped = 0

        sched = config.scheduler or SchedulerSpec()
        self.dispatch = sched.build_dispatch()
        self.placement = sched.build_placement()
        self.dispatch.bind(self)
        self.placement.bind(self)

        # KV-store / compression-selection layer.  Without a store there
        # is no prefix to probe or write back; without a selection
        # policy (or an admission verdict) every request prefills with
        # the scenario method.
        self.kvstore = config.kvstore.build() \
            if config.kvstore is not None else None
        self.selection = config.selection.build() \
            if config.selection is not None else None
        self._selection_mix: dict[str, dict[str, int]] = {}
        if self.selection is not None:
            self.selection.bind(self)

        # Fault injection / recovery.  Without a fault plan the timeline
        # is empty, no NIC brownout or transfer flap is active, and the
        # recovery policy is never asked.
        self.faults = config.faults
        rspec = config.recovery if config.recovery is not None \
            else RecoverySpec(DEFAULT_RECOVERY)
        self.recovery = rspec.build()
        self.recovery.bind(self)
        self._fault_rng: np.random.Generator | None = None
        self._fault_timeline: list = []
        self._transfer_fail_p = 0.0
        self._nic_factors: list[float] = []
        self._failed: list[SimRequest] = []
        #: Requests with no up prefill replica to dispatch to; drained
        #: when a prefill replica is repaired.
        self._pending_dispatch: deque = deque()
        #: request_id -> (request, comm seconds accrued at transfer
        #: start) for every in-flight KV transfer; lets a crash or flap
        #: un-credit the wire time it threw away.
        self._inflight: dict[int, tuple[SimRequest, float]] = {}
        if self.faults is not None:
            for spec in self.faults.faults:
                if spec.kind != "kvstore_outage":
                    continue
                if self.kvstore is None:
                    raise ValueError(
                        "kvstore_outage faults need a kvstore "
                        "configured on the cluster"
                    )
                tier = spec.resolved_params()["tier"]
                names = [t.spec.name for t in self.kvstore.tiers]
                if tier not in names:
                    raise ValueError(
                        f"kvstore_outage tier {tier!r} is not in the "
                        f"configured store (tiers: {', '.join(names)})"
                    )
            # The plan-derived seed (not the trace seed) makes the
            # stream re-derivable inside parallel sweep workers: the
            # timeline draws first, then runtime draws (transfer flaps,
            # retry jitter) consume the stream in event order.
            self._fault_rng = np.random.default_rng(self.faults.rng_seed())
            self._transfer_fail_p = self.faults.transfer_fail_prob()
            horizon = 2.0 * max(tr.arrival_s for tr in trace) + 3600.0
            self._fault_timeline = self.faults.timeline(
                self._fault_rng, horizon, len(self._prefill),
                len(self._decode))

        # Elastic cluster: autoscaling + admission.  The provisioned
        # fleet is the *maximum*: the autoscaler powers replicas on and
        # off within it.  Unconfigured, the ``static`` autoscaler keeps
        # the whole fleet powered and never evaluates, and
        # ``accept_all`` admission accepts every arrival unchanged.
        aspec = config.autoscaler if config.autoscaler is not None \
            else AutoscalerSpec(DEFAULT_AUTOSCALER)
        self.autoscaler = aspec.build()
        self.autoscaler.bind(self)
        adspec = config.admission if config.admission is not None \
            else AdmissionSpec(DEFAULT_ADMISSION)
        self.admission = adspec.build()
        self.admission.bind(self)
        self._n_shed = 0
        self._n_degraded = 0
        #: ``(time, role, action, index)`` scaling events.
        self._scale_events: list = []
        #: ``(time, powered_prefill, powered_decode)`` step timeseries.
        self._replica_timeseries: list = []
        self._last_terminal_t = 0.0
        n_p, n_d = len(self._prefill), len(self._decode)
        init_p, init_d = self.autoscaler.initial(n_p, n_d)
        self._target_p = min(max(1, int(init_p)), n_p)
        self._target_d = min(max(1, int(init_d)), n_d)
        # The un-powered tail starts off — initial state, no events.
        for r in self._prefill[self._target_p:]:
            r.state = "off"
        for d in self._decode[self._target_d:]:
            d.state = "off"
        self._record_replicas(0.0)

        # Artifact shape only, fixed here from the config: records carry
        # the per-request method keys when a store, a selection policy
        # or a degrading admission policy is configured, and the summary
        # carries a ``faults`` / ``elastic`` block when that subsystem
        # is.  Neither flag chooses a code path.
        self._stamp_methods = (self.kvstore is not None
                               or self.selection is not None
                               or self.admission.may_degrade)
        self._report_elastic = (config.autoscaler is not None
                                or config.admission is not None)

    # -- public API ----------------------------------------------------------

    def run(self) -> SimulationResult:
        """Run to completion and return the results."""
        # Fault events go on the heap first: at equal timestamps the
        # lower sequence number wins, so a crash always preempts the
        # sim event it coincides with (matching the stale-event guards,
        # which discard exactly the events a crash raced).
        for t, kind, payload in self._fault_timeline:
            self._push(t, "fault", (kind, payload))
        # The autoscaler's evaluation loop starts one interval in and
        # re-arms itself while requests are outstanding; ``static``
        # opts out entirely and adds no events.
        if self.autoscaler.evaluates:
            self._push(self.autoscaler.interval_s(), "elastic_eval", None)
        for tr in self.trace:
            self._push(tr.arrival_s, "arrival", SimRequest(trace=tr))
        while self._events:
            time, _, kind, payload = heapq.heappop(self._events)
            getattr(self, f"_on_{kind}")(time, payload)
        peak = max(
            (d.peak_bytes + d.base_bytes) / (self.dec_res.mem_gb * _GB)
            for d in self._decode
        )
        self._finished.sort(key=lambda r: r.request_id)
        self._rejected.sort(key=lambda r: r.request_id)
        self._failed.sort(key=lambda r: r.request_id)
        kv_stats = self.kvstore.stats() if self.kvstore is not None else None
        mix = None
        if self.selection is not None:
            mix = {tier: dict(sorted(counts.items()))
                   for tier, counts in sorted(self._selection_mix.items())}
        elastic = self._elastic_stats() if self._report_elastic else None
        return SimulationResult(requests=self._finished,
                                elastic_stats=elastic,
                                peak_memory_fraction=peak,
                                n_swapped=self._n_swapped,
                                config=self.config,
                                n_rejected=len(self._rejected),
                                kvstore_stats=kv_stats,
                                selection_mix=mix,
                                rejected_requests=self._rejected,
                                failed_requests=self._failed,
                                faulted=self.faults is not None)

    # -- event handlers --------------------------------------------------------

    def _on_arrival(self, now: float, req: SimRequest) -> None:
        # Admission judges every fresh arrival exactly once; crash
        # re-dispatches and retries bypass it (the request was already
        # admitted).
        verdict = self.admission.admit(now, req, self)
        if verdict == "shed":
            req.rejected = True
            self._n_shed += 1
            self._rejected.append(req)
            self._last_terminal_t = max(self._last_terminal_t, now)
            return
        if verdict is not None:
            if verdict.name != self.method.name:
                self._n_degraded += 1
            req.admitted_method = verdict
        self._dispatch_to_prefill(now, req)

    def _dispatch_to_prefill(self, now: float, req: SimRequest) -> None:
        replicas = self._prefill
        mapping = None
        up = [i for i, r in enumerate(replicas) if r.up and r.state == "on"]
        if not up:
            # Whole prefill fleet down (or booting): park the request
            # until a repair or boot completes (never silently dropped).
            self._pending_dispatch.append(req)
            return
        if len(up) < len(replicas):
            # Dispatch sees only the live replicas; indices map back to
            # fleet positions afterwards.
            replicas = [replicas[i] for i in up]
            mapping = up
        idx = self.dispatch.choose(now, req, replicas)
        if not 0 <= idx < len(replicas):
            raise ValueError(
                f"dispatch policy {self.dispatch.name!r} chose replica "
                f"{idx} of {len(replicas)}"
            )
        if mapping is not None:
            idx = mapping[idx]
        replica = self._prefill[idx]
        req.prefill_replica = idx
        replica.queued_tokens += req.trace.input_len
        replica.assigned += 1
        replica.queue.append(req)
        if replica.current is None:
            self._start_prefill(now, idx)

    def _start_prefill(self, now: float, idx: int) -> None:
        """Serve a batch of queued prompts in one forward pass.

        Requests are taken FIFO while their summed prompt length fits
        the token budget (a long prompt always runs alone).  Per
        request: the admission verdict, else the selection policy, else
        the scenario method fixes its compression method; a configured
        prefix cache is probed for the request's shareable prefix
        (clamped so at least one prompt token always prefills), and the
        matched fraction of prefill compute is *skipped* — replaced by
        the owning tier's read time.  The pass costs the linear-layer
        time of the summed *effective* (uncached) tokens plus each
        request's own attention and quantization on its effective
        tokens (the vLLM batched-prefill cost model), plus the tier
        reads.  A request's own read accrues to its ``comm`` bucket;
        everything else it waits through is ``prefill``, bar its own
        quantization share (per-token work).  The decode-side batch
        cost model keeps the scenario method (see
        :mod:`repro.kvstore.selection`).
        """
        replica = self._prefill[idx]
        batch = [replica.queue.popleft()]
        total_tokens = batch[0].trace.input_len
        while replica.queue and (
            total_tokens + replica.queue[0].trace.input_len
            <= PREFILL_TOKEN_BUDGET
        ):
            nxt = replica.queue.popleft()
            batch.append(nxt)
            total_tokens += nxt.trace.input_len

        replica.current = batch
        per_request = []
        total_eff = 0
        for req in batch:
            if req.admitted_method is not None:
                # Elastic admission degraded this request at arrival;
                # overload control outranks per-request selection.
                method = req.admitted_method
            elif self.selection is not None:
                method = self.selection.choose(now, req, self)
            else:
                method = self.method
            if self._stamp_methods:
                req.method = method
            if self.selection is not None:
                tier_key = str(req.trace.slo_tier)
                counts = self._selection_mix.setdefault(tier_key, {})
                counts[method.name] = counts.get(method.name, 0) + 1
            if self.kvstore is not None:
                limit = req.trace.input_len - 1
                if req.kv_refetch:
                    # Recovering a crash-lost KV: the previous
                    # attempt's writeback (or the session entry) may
                    # cover the whole prompt, not just the session
                    # prefix — probe for all of it.
                    prefix = limit
                    req.kv_refetch = False
                else:
                    prefix = min(req.trace.prefix_len, limit)
                hit = self.kvstore.lookup(self._cache_key(req), prefix, now)
                req.prefix_hit_tokens = hit.tokens
                req.cache_read_s = hit.read_s
                req.cache_tier = hit.tier
            eff = req.trace.input_len - req.prefix_hit_tokens
            total_eff += eff
            per_request.append(prefill_time(self.spec, replica.res, eff,
                                            method, self.calib))
        joint = prefill_time(self.spec, replica.res, total_eff,
                             self.method, self.calib)
        batch_s = (joint.linear_s
                   + sum(b.quantize_s for b in per_request)
                   + sum(b.attention_s for b in per_request)
                   + sum(req.cache_read_s for req in batch))
        for req, own in zip(batch, per_request):
            req.prefill_start = now
            req.prefill_s = batch_s - own.quantize_s - req.cache_read_s
            req.quant_s = own.quantize_s
            req.comm_s += req.cache_read_s
        self._push(now + batch_s, "prefill_done",
                   (idx, replica.epoch, batch))

    def _cache_key(self, req: SimRequest):
        """Prefix-cache key: the session for multi-turn requests (turns
        of one conversation share and extend one entry), else a
        per-request key — never hit, but it occupies capacity and
        churns eviction exactly like a real single-shot tenant."""
        sid = req.trace.session_id
        return sid if sid >= 0 else ("r", req.trace.request_id)

    def _on_prefill_done(self, now: float, payload) -> None:
        idx, epoch, batch = payload
        replica = self._prefill[idx]
        if epoch != replica.epoch:
            return                       # the replica crashed mid-pass
        replica.current = None
        for req in batch:
            replica.queued_tokens -= req.trace.input_len
            req.prefill_end = now
        if self.kvstore is not None:
            # Write back the freshly computed (compressed) prompt KV —
            # before any same-instant next batch probes the cache, so a
            # follow-up session turn already queued here can hit it.
            for req in batch:
                self.kvstore.put(
                    self._cache_key(req), req.trace.input_len,
                    self.spec.kv_bytes_per_token(
                        req.method.kv_wire_bytes_per_value),
                    req.method.name, now)
        if replica.queue:
            self._start_prefill(now, idx)
        else:
            self._maybe_retire(now, "prefill", idx)
        for req in batch:
            self._dispatch_to_decode(now, req)

    def _choose_placement(self, now: float, req: SimRequest,
                          reserve: float) -> int | None:
        """Run the placement policy and validate its answer: the chosen
        replica must exist and actually have room (a policy returning a
        sentinel like -1, or ignoring ``reserve``, would otherwise
        silently over-commit memory via negative indexing)."""
        target = self.placement.choose(now, req, self._decode, reserve)
        if target is None:
            return None
        if not 0 <= target < len(self._decode):
            raise ValueError(
                f"placement policy {self.placement.name!r} chose replica "
                f"{target} of {len(self._decode)} (return None when no "
                "replica fits)"
            )
        if self._decode[target].free_bytes() < reserve:
            raise ValueError(
                f"placement policy {self.placement.name!r} chose replica "
                f"{target} without room for the request "
                f"({self._decode[target].free_bytes():.0f} bytes free, "
                f"{reserve:.0f} needed)"
            )
        return target

    def _dispatch_to_decode(self, now: float, req: SimRequest) -> None:
        reserve = self._request_bytes(req)
        target = self._choose_placement(now, req, reserve)
        if target is None:
            if self.placement.swap_on_full:
                # §5.1 step 6: stage the quantized KV in prefill CPU
                # memory until a decode replica frees enough room.
                req.swapped = True
                self._n_swapped += 1
                self._pending_swap.append(req)
            else:
                # Admission control (no_swap placement): the request is
                # dropped after prefill and never reaches decode.
                req.rejected = True
                self._rejected.append(req)
                self._last_terminal_t = max(self._last_terminal_t, now)
            return
        self._begin_transfer(now, req, target, reserve)

    def _begin_transfer(self, now: float, req: SimRequest, target: int,
                        reserve: float) -> None:
        decode = self._decode[target]
        decode.used_bytes += reserve
        decode.peak_bytes = max(decode.peak_bytes, decode.used_bytes)
        decode.queued_tokens += req.trace.total_len
        decode.assigned += 1
        req.decode_replica = target
        req.reserved_bytes = reserve

        # A prefix hit already paid its tier's read bandwidth; only the
        # newly computed tokens' KV crosses the prefill NIC.
        nbytes = kv_wire_bytes(self.spec, req.method or self.method,
                               req.trace.input_len - req.prefix_hit_tokens)
        nic = self._prefill[req.prefill_replica]
        start = max(now, nic.nic_free_at)
        # Time spent waiting for the replica's NIC is KV-transmission
        # delay: it accrues to the comm bucket (this is what makes the
        # comm ratio climb with RPS in Fig. 1(d)).
        nic_wait = start - now
        src_gbps = nic.res.network_gbps
        dst_gbps = self.dec_res.network_gbps
        if self._nic_factors:
            # An active NIC brownout scales both endpoints' bandwidth
            # for the whole transfer (the factor at transfer start
            # applies end to end — a documented simplification).
            factor = self._nic_factor()
            src_gbps *= factor
            dst_gbps *= factor
        full = self.net.transfer_time(nbytes, src_gbps, dst_gbps,
                                      via_cpu=req.swapped).seconds
        nic.nic_free_at = start + full
        if self.config.pipelining and not req.swapped:
            exposed = self.net.pipelined_exposed_time(
                nbytes, src_gbps, dst_gbps,
                compute_s=req.prefill_s,
                n_stages=DEFAULT_PIPELINE_STAGES,
            )
            # Overlapped portion hides inside prefill; only the exposed
            # tail delays the request.
            done = start + exposed
            comm_added = nic_wait + exposed
        else:
            done = start + full
            comm_added = nic_wait + full
        req.comm_s += comm_added
        self._inflight[req.request_id] = (req, comm_added)
        if self._transfer_fail_p > 0.0 and float(
                self._fault_rng.random()) < self._transfer_fail_p:
            # The flap surfaces when the transfer would have landed (the
            # failed attempt held the NIC either way).
            self._push(done, "transfer_fail", (req, req.attempt))
            return
        self._push(done, "transfer_done", (req, req.attempt))

    def _on_transfer_done(self, now: float, payload) -> None:
        req, attempt = payload
        if req.attempt != attempt:
            return             # a crash already recovered this attempt
        self._inflight.pop(req.request_id, None)
        req.transfer_end = now
        req.decode_start = now
        idx = req.decode_replica
        decode = self._decode[idx]
        # The prefill stage already produced the first output token.
        remaining = req.trace.output_len - 1
        if remaining == 0:
            # Single-token request: its only token exists already, so it
            # finishes here without a decode iteration.  (A former
            # ``max(1, …)`` off-by-one ran one spurious iteration,
            # over-counting tokens_generated and decode time.)
            self._finish_request(now, decode, req)
            self._admit_pending(now)
            return
        decode.active.append([req, remaining])
        if not decode.iteration_scheduled:
            self._schedule_decode(now, idx)
        elif self.step_mode == "span" and not decode.boundary_pending:
            # A span is in flight; the join takes effect at the end of
            # the iteration currently in progress.
            self._interrupt_span(now, idx)

    def _schedule_decode(self, now: float, idx: int) -> None:
        if self.step_mode == "span":
            self._schedule_span(now, idx)
        else:
            self._schedule_iteration(now, idx)

    # -- token stepping (legacy path) ------------------------------------------

    def _schedule_iteration(self, now: float, idx: int) -> None:
        decode = self._decode[idx]
        if not decode.active:
            decode.iteration_scheduled = False
            return
        ctxs = [entry[0].trace.input_len + entry[0].tokens_generated + 1
                for entry in decode.active]
        timing = self.cost_model.iteration(ctxs)
        snapshot = list(decode.active)
        decode.iteration_scheduled = True
        self._push(now + timing.latency_s, "decode_iter",
                   (idx, decode.epoch, snapshot, timing))

    def _on_decode_iter(self, now: float, payload) -> None:
        idx, epoch, snapshot, timing = payload
        decode = self._decode[idx]
        if epoch != decode.epoch:
            return          # the replica crashed before this iteration

        kv_sum = sum(c.kv_read_s for c in timing.per_request)
        compute_sum = sum(c.compute_s for c in timing.per_request)
        requant_sum = sum(c.requant_s for c in timing.per_request)
        dequant_sum = sum(c.dequant_s for c in timing.per_request)
        approx_sum = sum(c.approx_s for c in timing.per_request)
        decode_share = timing.shared_s + kv_sum + compute_sum + requant_sum

        finished_entries = []
        for entry in snapshot:
            entry[0].accrue_decode(decode_share, dequant_sum, approx_sum,
                                   kv_sum)
            entry[0].add_token_time(now)
            entry[1] -= 1
            if entry[1] <= 0:
                finished_entries.append(entry)

        if finished_entries:
            # One-pass rebuild instead of per-entry list.remove() — that
            # was O(batch) per finishing request, quadratic per event.
            decode.active = [e for e in decode.active if e[1] > 0]
            for entry in finished_entries:
                self._finish_request(now, decode, entry[0])
            self._admit_pending(now)
        self._schedule_iteration(now, idx)

    # -- span stepping (fast-forward path) -------------------------------------

    def _schedule_span(self, now: float, idx: int) -> None:
        """Start a span covering every iteration until the batch next
        changes on its own: ``k`` = the earliest finisher's remaining
        tokens.  Joins arriving mid-span truncate it via
        :meth:`_interrupt_span`."""
        decode = self._decode[idx]
        decode.span_id += 1
        active = decode.active
        if not active:
            decode.iteration_scheduled = False
            return
        clock = decode.clock
        if decode.n_started < len(active):
            # Requests that joined since the last span enter the ledger
            # here, so none is credited for a span it did not run in.
            if decode.n_started == 0:
                decode.clear_ledger()
            start = len(decode.ledger_k)
            for entry in active[decode.n_started:]:
                entry += (clock + entry[1],
                          entry[0].trace.input_len + 1 - clock, start)
                decode.start(entry)
            decode.n_started = len(active)
        # The batch's contexts are ``base + clock``, so the running sums
        # give the span's closed form with no pass over the batch.
        n = decode.n_started
        span = self.cost_model.span_vectors(
            decode.sum_base + n * clock, n, decode.ends[0] - clock,
            decode.base_hist, clock)
        decode.span = span
        decode.span_start = now
        decode.iteration_scheduled = True
        self._push(now + span.cumlat.item(-1), "decode_span",
                   (idx, decode.span_id))

    def _settle_span(self, decode: _DecodeReplica, j: int) -> None:
        """Book the first ``j`` iterations of the in-flight span as one
        ledger entry.

        Every request in the batch shares the entry: each accrues the
        *batch-wide* bucket sums (it waits through the whole batch's
        iteration), exactly as the token path accrues them one iteration
        at a time.  The sums and the token completion times are the
        span's closed-form prefix totals; the last cumulative latency is
        bitwise identical to the span event's timestamp.
        """
        span = decode.span
        decode.append_ledger(j, span.decode_s.item(j - 1),
                             span.dequant_s.item(j - 1),
                             span.approx_s.item(j - 1),
                             span.kv_read_s.item(j - 1),
                             decode.span_start + span.cumlat[:j])

    def _on_decode_span(self, now: float, payload) -> None:
        idx, span_id = payload
        decode = self._decode[idx]
        if span_id != decode.span_id:
            return                        # span was truncated by a join
        self._settle_span(decode, decode.span.k)
        clock = decode.clock
        n = decode.n_started
        started = decode.active[:n]
        finished_entries = [e for e in started if e[2] <= clock]
        if finished_entries:
            decode.active = [e for e in started if e[2] > clock] \
                + decode.active[n:]
            decode.n_started = n - len(finished_entries)
            for entry in finished_entries:
                decode.stop(entry)
                decode.credit(entry)
                entry[0].add_token_times(
                    np.concatenate(decode.ledger_times[entry[4]:]))
                self._finish_request(now, decode, entry[0])
            self._admit_pending(now)
        self._schedule_span(now, idx)

    def _interrupt_span(self, now: float, idx: int) -> None:
        """Truncate the in-flight span because a request joined at ``now``.

        The join takes effect at the end of the iteration in progress —
        boundary ``j``, the first whose cumulative latency reaches the
        elapsed time.  The first ``j`` iterations are settled with
        their closed-form totals and a zero-state boundary event is
        pushed at that instant; it re-snapshots the batch, so any
        further joins before the boundary ride along for free.
        """
        decode = self._decode[idx]
        cumlat = decode.span.cumlat
        j = int(np.searchsorted(cumlat, now - decode.span_start,
                                side="left")) + 1
        if j >= decode.span.k:
            # Joined during the span's last iteration: the natural span
            # end is the join boundary; nothing to truncate.
            return
        self._settle_span(decode, j)
        # No request can finish here: j < k = min(remaining) over the span.
        decode.span_id += 1               # drop the in-flight span event
        decode.boundary_pending = True
        self._push(decode.span_start + cumlat.item(j - 1), "span_boundary",
                   (idx, decode.epoch))

    def _on_span_boundary(self, now: float, payload) -> None:
        idx, epoch = payload
        decode = self._decode[idx]
        if epoch != decode.epoch:
            return         # the replica crashed before the boundary
        decode.boundary_pending = False
        self._schedule_span(now, idx)

    # -- shared decode bookkeeping ---------------------------------------------

    def _finish_request(self, now: float, decode: _DecodeReplica,
                        req: SimRequest) -> None:
        req.finish = now
        decode.used_bytes -= req.reserved_bytes
        decode.queued_tokens -= req.trace.total_len
        if self.kvstore is not None:
            # Extend the session's entry with the generated tokens: the
            # next turn's prompt embeds this whole conversation, so its
            # shareable prefix is the full context, not just the prompt.
            self.kvstore.put(
                self._cache_key(req), req.trace.total_len,
                self.spec.kv_bytes_per_token(
                    req.method.kv_wire_bytes_per_value),
                req.method.name, now)
        self._finished.append(req)
        self._last_terminal_t = max(self._last_terminal_t, now)
        if req.decode_replica >= 0:
            self._maybe_retire(now, "decode", req.decode_replica)

    def _admit_pending(self, now: float) -> None:
        still_waiting: deque = deque()
        while self._pending_swap:
            req = self._pending_swap.popleft()
            reserve = self._request_bytes(req)
            target = self._choose_placement(now, req, reserve)
            if target is not None:
                self._begin_transfer(now, req, target, reserve)
            else:
                still_waiting.append(req)
        self._pending_swap = still_waiting

    # -- fault injection and recovery ------------------------------------------

    def _on_fault(self, now: float, payload) -> None:
        kind, data = payload
        if kind == "replica_down":
            role, idx = data
            if role == "prefill":
                self._prefill_down(now, idx)
            else:
                self._decode_down(now, idx)
        elif kind == "replica_up":
            role, idx = data
            if role == "prefill":
                self._prefill_up(now, idx)
            else:
                self._decode_up(now, idx)
        elif kind == "nic_on":
            self._nic_factors.append(data)
        elif kind == "nic_off":
            self._nic_factors.remove(data)
        elif kind == "kv_dark":
            tier, dark = data
            self.kvstore.set_dark(tier, dark)
        else:
            raise ValueError(f"unknown fault event kind {kind!r}")

    def _nic_factor(self) -> float:
        """Product of active NIC brownout factors (1.0 = healthy)."""
        factor = 1.0
        for f in self._nic_factors:
            factor *= f
        return factor

    def fault_capacity_signal(self) -> float:
        """Fraction of decode replicas currently down (0.0 unfaulted).

        The ``congestion`` selection policy folds this into its
        congestion signal, so fault-driven capacity loss degrades
        requests to the cheaper compression method exactly like
        store/NIC pressure does (graceful degradation).
        """
        if not self._decode:
            return 0.0
        down = sum(1 for d in self._decode if not d.up)
        return down / len(self._decode)

    def _prefill_down(self, now: float, idx: int) -> None:
        replica = self._prefill[idx]
        replica.down_count += 1
        if replica.down_count > 1:
            return                # already down via an overlapping spec
        replica.up = False
        replica.epoch += 1        # discard the in-flight prefill_done
        batch = replica.current or []
        queued = list(replica.queue)
        replica.current = None
        replica.queue.clear()
        replica.queued_tokens = 0
        # In-flight transfers sourced from this replica's GPU memory
        # die with it; swapped-KV transfers stream from host memory and
        # survive the crash (a documented simplification).
        dead = [(rid, req, comm) for rid, (req, comm)
                in self._inflight.items()
                if req.prefill_replica == idx and not req.swapped]
        for rid, req, comm in dead:
            del self._inflight[rid]
            self._release_reservation(req)
            self._recover(now, req, lost_kv=True)
        for req in batch:
            # The buckets were charged the full planned pass up front;
            # only the elapsed share was actually burned.
            self._recover(now, req, lost_kv=True,
                          wasted_s=max(0.0, now - req.prefill_start))
        for req in queued:
            # Queued requests lost nothing — re-dispatch silently.
            self._dispatch_to_prefill(now, req)
        if dead:
            self._admit_pending(now)

    def _prefill_up(self, now: float, idx: int) -> None:
        replica = self._prefill[idx]
        replica.down_count -= 1
        if replica.down_count > 0:
            return
        replica.up = True
        self._resume(now, "prefill")
        # A crash emptied this replica; if it was draining it can retire
        # now that it is repaired-and-idle.
        self._maybe_retire(now, "prefill", idx)

    def _decode_down(self, now: float, idx: int) -> None:
        decode = self._decode[idx]
        decode.down_count += 1
        if decode.down_count > 1:
            return
        decode.up = False
        decode.epoch += 1    # discard in-flight iteration/boundary events
        if self.step_mode == "span" and decode.iteration_scheduled:
            if decode.boundary_pending:
                self._unsettle_boundary_iteration(decode)
            else:
                # Credit only the iterations that fully completed
                # strictly before the crash — exactly the events the
                # token path would have fired (a tie goes to the crash,
                # which was pushed first).
                elapsed = now - decode.span_start
                done = int(np.searchsorted(decode.span.cumlat, elapsed,
                                           side="left"))
                if done > 0:
                    self._settle_span(decode, done)
        # The lost progress is charged as wasted work when the retry
        # wipes it, so it must reach the buckets first.
        for entry in decode.active[:decode.n_started]:
            decode.credit(entry)
        decode.span_id += 1           # drop the in-flight span event
        decode.boundary_pending = False
        decode.iteration_scheduled = False
        victims = [entry[0] for entry in decode.active]
        decode.active = []
        decode.n_started = 0
        decode.clear_sums()
        decode.clear_ledger()
        decode.span = None
        decode.used_bytes = 0.0
        decode.queued_tokens = 0
        transfer_victims = [
            (rid, req, comm) for rid, (req, comm) in self._inflight.items()
            if req.decode_replica == idx
        ]
        for rid, req, comm in transfer_victims:
            del self._inflight[rid]
        # The replica's books were wiped above, so nothing is refunded.
        for req in victims:
            self._release_reservation(req, refund=False)
            self._recover(now, req, lost_kv=True)
        for rid, req, comm in transfer_victims:
            # The KV still sits at the source; only the wire time was
            # wasted.  It re-lands in the queue bucket.
            req.comm_s -= comm
            req.wasted_compute_s += comm
            self._release_reservation(req, refund=False)
            self._recover(now, req, lost_kv=False)

    def _decode_up(self, now: float, idx: int) -> None:
        decode = self._decode[idx]
        decode.down_count -= 1
        if decode.down_count > 0:
            return
        decode.up = True
        self._admit_pending(now)
        self._maybe_retire(now, "decode", idx)

    def _unsettle_boundary_iteration(self, decode: _DecodeReplica) -> None:
        """Un-credit the boundary iteration a crash interrupted.

        :meth:`_interrupt_span` settles *through* the iteration in
        progress (where a join lands); a crash striking before the
        boundary event kills that iteration mid-flight, and the token
        path would never have credited it — its event had not fired.
        A negative ledger entry takes back the settled span's last
        iteration so both step modes account the lost work identically.
        """
        j = decode.ledger_k[-1]
        settled = (decode.ledger_decode[-1], decode.ledger_dequant[-1],
                   decode.ledger_approx[-1], decode.ledger_kv_read[-1])
        if j > 1:
            tp = decode.span.totals(j - 1)
            deltas = (settled[0] - tp.decode_s, settled[1] - tp.dequant_s,
                      settled[2] - tp.approx_s, settled[3] - tp.kv_read_s)
        else:
            deltas = settled
        decode.append_ledger(-1, -deltas[0], -deltas[1], -deltas[2],
                             -deltas[3], _NO_TIMES)

    def _on_transfer_fail(self, now: float, payload) -> None:
        req, attempt = payload
        if req.attempt != attempt:
            return             # a crash already recovered this attempt
        _, comm = self._inflight.pop(req.request_id)
        target = req.decode_replica
        self._release_reservation(req)
        # The flapped attempt's wire time is wasted work, not KV
        # communication the request benefited from.
        req.comm_s -= comm
        req.wasted_compute_s += comm
        self._recover(now, req, lost_kv=False)
        self._admit_pending(now)
        # The flap may have freed a draining replica's last bytes.
        self._maybe_retire(now, "decode", target)

    def _release_reservation(self, req: SimRequest,
                             refund: bool = True) -> None:
        """Drop ``req``'s claim on its decode replica; ``refund`` returns
        the reserved bytes and tokens to that replica's books."""
        if refund:
            decode = self._decode[req.decode_replica]
            decode.used_bytes -= req.reserved_bytes
            decode.queued_tokens -= req.trace.total_len
        req.reserved_bytes = 0.0
        req.decode_replica = -1

    def _resume(self, now: float, role: str) -> None:
        """Hand the work parked while ``role``'s fleet could not serve
        to a replica that now can."""
        if role == "prefill":
            pending = self._pending_dispatch
            self._pending_dispatch = deque()
            for req in pending:
                self._dispatch_to_prefill(now, req)
        else:
            self._admit_pending(now)

    def _recover(self, now: float, req: SimRequest, lost_kv: bool,
                 wasted_s: float | None = None) -> None:
        """Route one fault-interrupted request through the recovery
        policy: schedule a retry, or fail it when the policy gives up.

        ``lost_kv`` — the KV no longer exists anywhere reachable (the
        request must re-prefill; a configured KV store is probed for a
        surviving cached prefix on the next pass).  Otherwise the KV
        still sits at the prefill side and only the decode dispatch is
        redone.
        """
        req.attempt += 1          # invalidate in-flight events
        if lost_kv:
            req.reset_for_retry(wasted_s)
            if self.kvstore is not None:
                req.kv_refetch = True
        attempt = req.n_retries + 1
        delay = self.recovery.delay(req, attempt, self._fault_rng)
        if delay is None:
            req.failed = True
            self._failed.append(req)
            self._last_terminal_t = max(self._last_terminal_t, now)
            return
        req.n_retries = attempt
        self._push(now + delay, "retry", (req, req.attempt, lost_kv))

    def _on_retry(self, now: float, payload) -> None:
        req, attempt, lost_kv = payload
        if req.attempt != attempt or req.failed or req.done:
            return
        if lost_kv:
            self._dispatch_to_prefill(now, req)
        else:
            self._dispatch_to_decode(now, req)

    # -- elastic scaling (autoscaler + admission) ------------------------------

    def prefill_backlog(self) -> int:
        """Requests waiting on or inside the prefill stage: queued,
        in-service and parked (the autoscaler/admission load signal)."""
        backlog = len(self._pending_dispatch)
        for replica in self._prefill:
            backlog += len(replica.queue)
            if replica.current is not None:
                backlog += len(replica.current)
        return backlog

    def recent_ttft_attainment(self, now: float, window_s: float,
                               ttft_slo_s: float) -> tuple[float, int]:
        """TTFT SLO attainment over requests finishing in the last
        ``window_s`` seconds: ``(attainment, n_finished)`` —
        ``(0.0, 0)`` when nothing finished in the window."""
        met = n = 0
        cutoff = now - window_s
        # ``_finished`` is appended in completion order; walk back
        # until the window's edge.
        for req in reversed(self._finished):
            if req.finish < cutoff:
                break
            n += 1
            if req.ttft <= ttft_slo_s:
                met += 1
        if n == 0:
            return 0.0, 0
        return met / n, n

    def _outstanding(self) -> int:
        """Trace requests not yet in a terminal state."""
        return (len(self.trace) - len(self._finished)
                - len(self._rejected) - len(self._failed))

    def _record_replicas(self, now: float) -> None:
        p = sum(1 for r in self._prefill if r.state != "off")
        d = sum(1 for r in self._decode if r.state != "off")
        ts = self._replica_timeseries
        if ts and ts[-1][0] == now:
            ts[-1] = (now, p, d)
        else:
            ts.append((now, p, d))

    def _on_elastic_eval(self, now, payload) -> None:
        n_p, n_d = len(self._prefill), len(self._decode)
        want_p, want_d = self.autoscaler.desired(
            now, self, n_p, n_d, self._target_p, self._target_d)
        want_p = min(max(1, int(want_p)), n_p)
        want_d = min(max(1, int(want_d)), n_d)
        if want_p != self._target_p:
            self._retarget(now, "prefill", want_p)
            self._target_p = want_p
        if want_d != self._target_d:
            self._retarget(now, "decode", want_d)
            self._target_d = want_d
        # Re-arm only while work remains, so the run still terminates.
        if self._outstanding() > 0:
            self._push(now + self.autoscaler.interval_s(),
                       "elastic_eval", None)

    def _retarget(self, now: float, role: str, want: int) -> None:
        """Reconcile one fleet toward ``want`` powered replicas.

        Scale-up resurrects draining replicas first (still warm — no
        cold start), then boots powered-off ones with the policy's
        cold-start latency.  Scale-down cancels pending boots first,
        then drains the highest-index serving replicas: they take no
        new work and retire once idle — in-flight work is never killed.
        """
        replicas = self._prefill if role == "prefill" else self._decode
        cur = sum(1 for r in replicas if r.state in ("on", "starting"))
        undrained = False
        if want > cur:
            for idx, r in enumerate(replicas):
                if cur >= want:
                    break
                if r.state == "draining":
                    r.state = "on"
                    cur += 1
                    undrained = True
                    self._scale_events.append((now, role, "undrain", idx))
            for idx, r in enumerate(replicas):
                if cur >= want:
                    break
                if r.state == "off":
                    r.state = "starting"
                    r.lifecycle += 1
                    r.on_since = now
                    cur += 1
                    self._scale_events.append((now, role, "boot", idx))
                    self._push(now + self.autoscaler.cold_start_s(),
                               "elastic_boot", (role, idx, r.lifecycle))
        elif want < cur:
            for idx in range(len(replicas) - 1, -1, -1):
                if cur <= want:
                    break
                r = replicas[idx]
                if r.state == "starting":
                    r.gpu_s += self._replica_gpus(role, idx) \
                        * (now - r.on_since)
                    r.state = "off"
                    r.lifecycle += 1   # cancel the in-flight boot event
                    cur -= 1
                    self._scale_events.append((now, role, "cancel", idx))
            for idx in range(len(replicas) - 1, -1, -1):
                if cur <= want:
                    break
                r = replicas[idx]
                if r.state == "on":
                    r.state = "draining"
                    cur -= 1
                    self._scale_events.append((now, role, "drain", idx))
                    self._maybe_retire(now, role, idx)
        self._record_replicas(now)
        if undrained:
            # A resurrected replica can serve again.
            self._resume(now, role)

    def _on_elastic_boot(self, now: float, payload) -> None:
        role, idx, lifecycle = payload
        replicas = self._prefill if role == "prefill" else self._decode
        r = replicas[idx]
        if r.state != "starting" or r.lifecycle != lifecycle:
            return              # the boot was canceled by a scale-down
        r.state = "on"
        self._scale_events.append((now, role, "up", idx))
        self._record_replicas(now)
        self._resume(now, role)

    def _replica_gpus(self, role: str, idx: int) -> int:
        if role == "prefill":
            return self._prefill[idx].res.parallelism.n_gpus
        return self.dec_res.parallelism.n_gpus

    def _maybe_retire(self, now: float, role: str, idx: int) -> None:
        """Power off a draining replica once it is idle and healthy.

        A crashed replica stays powered while down (a crash is not a
        power-off); the repair handlers re-check retirement.
        """
        if role == "prefill":
            r = self._prefill[idx]
            if not (r.state == "draining" and r.up
                    and r.current is None and not r.queue):
                return
        else:
            r = self._decode[idx]
            # Inbound transfers hold ``used_bytes``; wait them out.
            if not (r.state == "draining" and r.up
                    and not r.active and r.used_bytes <= 1e-9):
                return
        r.gpu_s += self._replica_gpus(role, idx) * (now - r.on_since)
        r.state = "off"
        self._scale_events.append((now, role, "down", idx))
        self._record_replicas(now)

    def _elastic_stats(self) -> dict:
        """The elastic summary block plus the live events/timeseries."""
        end = self._last_terminal_t
        gpu_hours = {"prefill": 0.0, "decode": 0.0}
        for role, replicas in (("prefill", self._prefill),
                               ("decode", self._decode)):
            for idx, r in enumerate(replicas):
                accrued = r.gpu_s
                if r.state != "off":
                    accrued += self._replica_gpus(role, idx) \
                        * max(0.0, end - r.on_since)
                gpu_hours[role] += accrued / 3600.0
        ts = self._replica_timeseries
        if not ts or end > ts[-1][0]:
            self._record_replicas(end)
            ts = self._replica_timeseries
        mean_p = mean_d = 0.0
        peak_p = peak_d = 0
        if end > 0:
            # Time-weighted means over [0, end]; a retirement landing
            # past the last terminal instant (a post-work repair) is
            # clamped out of the window.
            for (t0, p, d), (t1, _, _) in zip(ts, ts[1:]):
                dt = min(t1, end) - min(t0, end)
                mean_p += p * dt
                mean_d += d * dt
            mean_p /= end
            mean_d /= end
        elif ts:
            mean_p, mean_d = ts[0][1], ts[0][2]
        for _, p, d in ts:
            peak_p = max(peak_p, p)
            peak_d = max(peak_d, d)
        n_p, n_d = len(self._prefill), len(self._decode)
        return {
            "autoscaler": self.config.autoscaler.canonical()
            if self.config.autoscaler is not None else DEFAULT_AUTOSCALER,
            "admission": self.config.admission.canonical()
            if self.config.admission is not None else DEFAULT_ADMISSION,
            "n_scale_ups": sum(1 for ev in self._scale_events
                               if ev[2] in ("boot", "undrain")),
            "n_scale_downs": sum(1 for ev in self._scale_events
                                 if ev[2] in ("drain", "cancel")),
            "scaling_events": len(self._scale_events),
            "mean_prefill_replicas": mean_p,
            "peak_prefill_replicas": peak_p,
            "mean_decode_replicas": mean_d,
            "peak_decode_replicas": peak_d,
            "mean_utilization": (mean_p + mean_d) / (n_p + n_d),
            "gpu_hours": gpu_hours["prefill"] + gpu_hours["decode"],
            "prefill_gpu_hours": gpu_hours["prefill"],
            "decode_gpu_hours": gpu_hours["decode"],
            "n_shed": self._n_shed,
            "n_degraded": self._n_degraded,
            "events": [list(ev) for ev in self._scale_events],
            "timeseries": [list(pt) for pt in ts],
        }

    # -- helpers ----------------------------------------------------------------

    def _request_bytes(self, req: SimRequest) -> float:
        """Decode-memory reservation: KV for the request's full context
        (at the request's own selected method when one was chosen)."""
        method = req.method or self.method
        return req.trace.total_len * self.spec.kv_bytes_per_token(
            method.kv_mem_bytes_per_value
        )

    def _push(self, time: float, kind: str, payload) -> None:
        heapq.heappush(self._events, (time, next(self._seq), kind, payload))


def simulate(config: ClusterConfig, trace: list[TraceRequest]) -> SimulationResult:
    """Convenience: build a :class:`Simulator` and run it."""
    return Simulator(config, trace).run()
