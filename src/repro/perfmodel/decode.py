"""Decode-stage timing model (memory-bound roofline with batching).

A decode replica runs continuous batching: every iteration produces one
token for each in-flight request.  The iteration latency is

    base overhead                      (scheduler + kernel launches)
  + parameter read                     (whole model, shared by the batch)
  + Σ over requests of:
      KV read          — the request's resident KV bytes over HBM
      attention compute — two skinny matmuls (INT8 for HACK)
      dequantization   — comparators: full-KV dequant (§2.2)
      sum recompute    — HACK/SE ablation: re-reads the quantized KV
      requantization   — HACK/RQE ablation: last-V-block round trip
      Eq. 4 corrections — HACK: the ``(9·N·P + …)`` terms (§5.2–5.3)
      FP16 tail        — HACK+RQE: the ≤Π-token FP16 V block matmul

All method/spec/calibration-dependent coefficients are computed once in
a :class:`BatchCostModel`; every per-request cost is then affine in the
context length except the ``ceil(ctx/Π)`` staircase of the Eq. 4
corrections.  That structure gives a *closed form* for the summed
latency of a run of iterations between batch-composition changes
(:meth:`BatchCostModel.span`), which is what lets the simulator
fast-forward whole decode spans in one event instead of stepping
token by token.

Per-request JCT decomposition attributes dequant/approx to their own
buckets and everything else to "decode", matching Fig. 10's buckets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..cluster.parallelism import ReplicaResources
from ..methods.base import FP16_BYTES, Method
from ..model.config import ModelSpec
from .calibration import Calibration, DEFAULT_CALIBRATION

__all__ = ["RequestDecodeCosts", "IterationTiming", "SpanTotals",
           "SpanVectors", "BatchCostModel", "param_read_time",
           "request_decode_costs", "iteration_latency"]


@dataclass(frozen=True)
class RequestDecodeCosts:
    """Per-request, per-iteration cost components (seconds)."""

    kv_read_s: float
    compute_s: float
    dequant_s: float
    approx_s: float
    requant_s: float

    @property
    def total_s(self) -> float:
        return (self.kv_read_s + self.compute_s + self.dequant_s
                + self.approx_s + self.requant_s)


@dataclass(frozen=True)
class IterationTiming:
    """One decode iteration of a batch."""

    latency_s: float
    shared_s: float                      # base overhead + parameter read
    per_request: tuple[RequestDecodeCosts, ...]


@dataclass(frozen=True)
class SpanTotals:
    """Closed-form totals of ``k`` consecutive iterations of one batch.

    ``decode_s``/``dequant_s``/``approx_s`` are the batch-wide bucket
    sums over the whole span — exactly what each participating request
    accrues to its Fig. 10 buckets (every request waits through the
    whole batch's iteration, so batch totals, not per-request shares,
    are what accumulate).  ``latency_s = decode_s + dequant_s +
    approx_s`` is the wall-clock length of the span.
    """

    k: int                               # iterations covered
    batch: int                           # requests in the batch
    latency_s: float
    decode_s: float                      # shared + KV read + compute + requant
    dequant_s: float
    approx_s: float
    kv_read_s: float                     # subset of decode_s: KV HBM reads


class SpanVectors(NamedTuple):
    """Per-prefix totals of one span: element ``j-1`` of each vector is
    the matching :class:`SpanTotals` field of the span's first ``j``
    iterations (see :meth:`BatchCostModel.span_vectors`)."""

    k: int
    batch: int
    cumlat: np.ndarray                   # latency_s
    decode_s: np.ndarray
    dequant_s: np.ndarray
    approx_s: np.ndarray
    kv_read_s: np.ndarray

    def totals(self, j: int) -> SpanTotals:
        """The span's first ``j`` iterations as :class:`SpanTotals`."""
        return SpanTotals(k=j, batch=self.batch,
                          latency_s=self.cumlat.item(j - 1),
                          decode_s=self.decode_s.item(j - 1),
                          dequant_s=self.dequant_s.item(j - 1),
                          approx_s=self.approx_s.item(j - 1),
                          kv_read_s=self.kv_read_s.item(j - 1))


def param_read_time(spec: ModelSpec, replica: ReplicaResources,
                    calib: Calibration = DEFAULT_CALIBRATION) -> float:
    """Seconds to stream the parameters once (shared across the batch)."""
    bw = replica.mem_bw_gbps * 1e9 * calib.param_bw_eff
    return spec.param_bytes() / bw


class BatchCostModel:
    """Decode cost model with all coefficients precomputed.

    Construct once per (spec, replica, method, calibration) — e.g. once
    per :class:`~repro.sim.engine.Simulator` — and evaluate per-request
    costs, per-iteration batch latencies, and closed-form span totals
    without re-deriving any bandwidth/rate products.

    Every per-iteration cost component is affine in the context length,
    ``a·ctx + b``, except the Eq. 4 corrections which add a staircase
    term ``c·ceil(ctx/Π)``; both sum in closed form over a span of
    iterations where ``ctx`` advances by one per iteration.
    """

    def __init__(self, spec: ModelSpec, replica: ReplicaResources,
                 method: Method,
                 calib: Calibration = DEFAULT_CALIBRATION) -> None:
        self.spec = spec
        self.replica = replica
        self.method = method
        self.calib = calib
        self.shared_s = (calib.decode_base_overhead_s
                         + param_read_time(spec, replica, calib))

        self._kv_bw = replica.mem_bw_gbps * 1e9 * calib.kv_bw_eff
        self._dequant_bw = replica.mem_bw_gbps * 1e9 * calib.dequant_bw_eff
        self._kv_fp16_bpt = spec.kv_bytes_per_token(FP16_BYTES)
        self._kv_resident_bpt = spec.kv_bytes_per_token(
            method.kv_mem_bytes_per_value
        )

        # Attention compute: Q·Kᵀ and P·V over the cached context for
        # every query head.  Skinny (M=1) matmuls run at the decode MFU.
        if method.int8_attention and replica.supports_int8:
            self._attn_rate = (replica.int8_tops * 1e12
                               * calib.decode_compute_mfu
                               * method.int_compute_gain
                               * calib.partition_efficiency(
                                   method.partition_size))
        elif method.fp8_attention_sim:
            self._attn_rate = (replica.fp16_tflops * 1e12
                               * calib.decode_compute_mfu
                               * calib.fp8_sim_attention_speedup)
        else:
            self._attn_rate = (replica.fp16_tflops * 1e12
                               * calib.decode_compute_mfu)

        # FP16 matmul over the ≤Π-token tail of V (Π/2 in expectation),
        # paid only by HACK+RQE.
        self._tail_s = 0.0
        if method.approx_per_iter and method.requant_elimination:
            tail_tokens = method.partition_size / 2.0
            tail_flops = (2.0 * tail_tokens * spec.n_heads * spec.head_dim
                          * spec.n_layers)
            self._tail_s = tail_flops / (replica.fp16_tflops * 1e12
                                         * calib.decode_compute_mfu)

        self._pi = method.partition_size
        self._p_k = max(1, math.ceil(spec.head_dim / self._pi))
        self._vector_rate = (replica.fp16_tflops * 1e12
                             * calib.vector_tflops_fraction)
        self._requant_s = (calib.requant_per_request_s
                           if method.approx_per_iter
                           and not method.requant_elimination else 0.0)

        # Affine span coefficients: per-iteration per-request cost is
        # a·ctx + b (+ c·ceil(ctx/Π) for the Eq. 4 corrections).
        self._a_kv = self._kv_resident_bpt / self._kv_bw
        self._a_cmp = (4.0 * spec.n_heads * spec.head_dim * spec.n_layers
                       / self._attn_rate)
        self._b_cmp = self._tail_s
        self._a_dq = 0.0
        if method.dequant_per_iter:
            self._a_dq = (self._kv_fp16_bpt * calib.dequant_traffic_factor
                          * method.dequant_traffic_scale / self._dequant_bw)
        self._a_ap = self._b_ap = self._c_ap = 0.0
        if method.approx_per_iter:
            head_factor = spec.n_heads * spec.n_layers
            self._a_ap = (9.0 * self._p_k + 1.0) * head_factor \
                / self._vector_rate
            self._b_ap = spec.head_dim * head_factor / self._vector_rate
            self._c_ap = 9.0 * spec.head_dim * head_factor \
                / self._vector_rate
            if not method.summation_elimination:
                # Recomputing Σb' re-reads and unpacks the quantized KV.
                self._a_ap += (self._kv_fp16_bpt * calib.nose_traffic_factor
                               / self._dequant_bw)
        # (r - s) mod Π for r in [0, Π) is this slice [Π - s : 2Π - s].
        self._residues = np.tile(np.arange(self._pi, dtype=np.int64), 2)
        self._i = np.empty(0, dtype=np.int64)    # ramps grow on first use

    # -- per-iteration (token-path) evaluation ----------------------------

    def request_costs(self, ctx_len: int) -> RequestDecodeCosts:
        """Per-iteration costs of one request with ``ctx_len`` cached
        tokens."""
        if ctx_len < 1:
            raise ValueError(f"ctx_len must be >= 1, got {ctx_len}")
        kv_fp16_bytes = ctx_len * self._kv_fp16_bpt
        kv_read_s = (ctx_len * self._kv_resident_bpt) / self._kv_bw

        attn_flops = 4.0 * ctx_len * self.spec.n_heads \
            * self.spec.head_dim * self.spec.n_layers
        compute_s = attn_flops / self._attn_rate + self._tail_s

        dequant_s = 0.0
        if self.method.dequant_per_iter:
            # Reads scattered code pages, decodes them (bitstream /
            # gather), and writes an FP16 copy — charged at the
            # dequantization rate.
            dequant_s = (kv_fp16_bytes * self.calib.dequant_traffic_factor
                         * self.method.dequant_traffic_scale
                         / self._dequant_bw)

        approx_s = 0.0
        if self.method.approx_per_iter:
            approx_s = self._approximation_time(ctx_len)
            if not self.method.summation_elimination:
                approx_s += (kv_fp16_bytes * self.calib.nose_traffic_factor
                             / self._dequant_bw)

        return RequestDecodeCosts(kv_read_s=kv_read_s, compute_s=compute_s,
                                  dequant_s=dequant_s, approx_s=approx_s,
                                  requant_s=self._requant_s)

    def iteration(self, ctx_lens: list[int]) -> IterationTiming:
        """Latency of one continuous-batching iteration over
        ``ctx_lens`` (exact legacy token-path semantics)."""
        if not len(ctx_lens):
            raise ValueError("ctx_lens must contain at least one request")
        per_request = tuple(self.request_costs(ctx) for ctx in ctx_lens)
        latency = self.shared_s + sum(c.total_s for c in per_request)
        return IterationTiming(latency_s=latency, shared_s=self.shared_s,
                               per_request=per_request)

    def _approximation_time(self, ctx_len: int) -> float:
        """Eq. 4 correction time with the per-partition count (§5.2–§5.3).

        Per layer and query head: Q·Kᵀ corrections cost ``9·L·P_k +
        d_h`` (``P_k = d_h/Π`` head-dim partitions) and P·V corrections
        cost ``9·d_h·P_v + L`` (``P_v = L/Π`` sequence partitions).
        Runs on the vector units, not tensor cores.
        """
        p_v = max(1, math.ceil(ctx_len / self._pi))
        per_head = (9.0 * ctx_len * self._p_k + self.spec.head_dim
                    + 9.0 * self.spec.head_dim * p_v + ctx_len)
        flops = per_head * self.spec.n_heads * self.spec.n_layers
        return flops / self._vector_rate

    # -- closed-form span (fast-path) evaluation --------------------------

    def _stair_cumsum(self, n: np.ndarray) -> np.ndarray:
        """Vectorized ``f(n) = Σ_{c=1}^{n} ceil(c/Π)`` (exact integers)."""
        q, r = np.divmod(n, self._pi)
        return self._pi * (q * (q + 1)) // 2 + r * (q + 1)

    @staticmethod
    def _check_span(ctx0, k: int) -> np.ndarray:
        ctx0 = np.ascontiguousarray(ctx0, dtype=np.int64)
        if ctx0.size == 0:
            raise ValueError("span needs at least one request")
        if k < 1:
            raise ValueError(f"span length must be >= 1, got {k}")
        if int(ctx0.min()) < 1:
            raise ValueError("context lengths must be >= 1")
        return ctx0

    def span(self, ctx0, k: int) -> SpanTotals:
        """Totals of ``k`` consecutive iterations of one fixed batch.

        ``ctx0`` holds each request's context length at the span's first
        iteration; request ``j``'s context at iteration ``i`` is
        ``ctx0[j] + i``.  All context sums are exact integers; each cost
        component is its affine coefficient times those sums, so the
        result matches the iterated per-token evaluation to FP rounding.
        ``span(ctx_lens, 1)`` is the vectorized one-iteration batch
        latency.  This scalar form is the oracle the per-prefix vectors
        of :meth:`span_vectors` are tested against.
        """
        ctx0 = self._check_span(ctx0, k)
        batch = int(ctx0.size)
        n_costs = batch * k
        # Σ_j Σ_i (ctx0_j + i) — exact in Python ints.
        s1 = k * int(ctx0.sum()) + batch * (k * (k - 1) // 2)
        kv_read = self._a_kv * s1
        compute = self._a_cmp * s1 + self._b_cmp * n_costs
        dequant = self._a_dq * s1
        approx = 0.0
        if self.method.approx_per_iter:
            stair = int((self._stair_cumsum(ctx0 + (k - 1))
                         - self._stair_cumsum(ctx0 - 1)).sum())
            approx = self._a_ap * s1 + self._b_ap * n_costs \
                + self._c_ap * stair
        requant = self._requant_s * n_costs
        decode_total = k * self.shared_s + kv_read + compute + requant
        return SpanTotals(k=k, batch=batch,
                          latency_s=decode_total + dequant + approx,
                          decode_s=decode_total, dequant_s=dequant,
                          approx_s=approx, kv_read_s=kv_read)

    @property
    def stair_period(self) -> int:
        """``Π`` when the Eq. 4 staircase applies (the size of the
        residue histogram :meth:`span_vectors` takes), else 0."""
        return self._pi if self.method.approx_per_iter else 0

    def _ramps(self, size: int) -> None:
        """Grow the shared ramps ``i``, ``i(i-1)/2`` and ``i·shared_s``
        (indexed by ``i``) to at least ``size`` elements."""
        if size <= len(self._i):
            return
        size = max(size, 2 * len(self._i))
        i = np.arange(size, dtype=np.int64)
        tri = i * (i - 1) // 2
        shared = i * self.shared_s
        zeros = np.zeros(size)
        for ramp in (i, tri, shared, zeros):
            ramp.flags.writeable = False
        self._i, self._tri, self._ishared, self._zeros = i, tri, shared, zeros

    def span_vectors(self, sum_ctx0: int, batch: int, k: int,
                     hist: np.ndarray | None = None,
                     shift: int = 0) -> SpanVectors:
        """Per-prefix totals of a ``k``-iteration span in one pass.

        The batch enters only through exact integer sums: ``sum_ctx0``
        (Σ of the first iteration's context lengths), ``batch`` and, for
        Eq. 4 methods, ``hist`` — the counts of ``(-ctx0) mod Π`` read
        rotated by ``shift``: ``h[r] = hist[(r + shift) mod Π]``.  Per
        element the floating-point operations and their order are those
        of :meth:`span`; a term is left out only where its coefficient
        is exactly 0.0, and every term is positive, so element ``j-1``
        of each vector equals the matching field of ``span(ctx0, j)``
        bit for bit.  The vectors are read-only.

        Stair term: with ``g[t] = Σ_j ceil((ctx0_j + t) / Π)``,
        ``g[0] = (Σctx0 + Σ_r r·h[r]) / Π`` and ``g[t] = g[t-1] +
        h[(t-1) mod Π]`` (a request's ceiling steps up right after its
        context passes a multiple of Π), so the stair is
        ``cumsum(g)``.
        """
        pi = self._pi
        approx_per_iter = self.method.approx_per_iter
        self._ramps(k + 1 + (pi if approx_per_iter else 0))
        i = self._i[1:k + 1]
        s1 = i * sum_ctx0
        s1 += batch * self._tri[1:k + 1]
        n_costs = batch * i
        kv_read = self._a_kv * s1
        compute = self._a_cmp * s1
        if self._b_cmp:
            compute += self._b_cmp * n_costs
        decode = self._ishared[1:k + 1] + kv_read
        decode += compute
        if self._requant_s:
            decode += self._requant_s * n_costs
        latency = decode
        dequant = self._zeros[:k]
        if self._a_dq:
            dequant = self._a_dq * s1
            latency = latency + dequant
        approx = self._zeros[:k]
        if approx_per_iter:
            shift %= pi
            residues = self._residues[pi - shift:2 * pi - shift]
            stair = np.empty(k, dtype=np.int64)
            stair[0] = (sum_ctx0 + int(residues @ hist)) // pi
            hist.take(self._i[shift:shift + k - 1], out=stair[1:],
                      mode="wrap")
            np.cumsum(stair, out=stair)
            np.cumsum(stair, out=stair)
            approx = self._a_ap * s1
            approx += self._b_ap * n_costs
            approx += self._c_ap * stair
            latency = latency + approx
        return SpanVectors(k, batch, latency, decode, dequant, approx,
                           kv_read)

    def span_cumlat(self, ctx0, k: int) -> np.ndarray:
        """Cumulative span latency after each of ``k`` iterations.

        Element ``i-1`` equals ``span(ctx0, i).latency_s`` bit for bit
        (see :meth:`span_vectors`, which this validates and feeds), so
        the last element is the span total the engine schedules its
        event at.  This is what gives the span fast path per-token
        completion times (the TTFT/TBT substrate) without stepping
        token by token.
        """
        ctx0 = self._check_span(ctx0, k)
        hist = None
        if self.method.approx_per_iter:
            hist = np.bincount(-ctx0 % self._pi, minlength=self._pi)
        return self.span_vectors(int(ctx0.sum()), int(ctx0.size), k,
                                 hist).cumlat

    def find_boundary(self, ctx0, k: int, elapsed_s: float) -> int:
        """Smallest ``j`` in ``[1, k]`` whose span latency reaches
        ``elapsed_s``.

        Used to truncate an in-flight span when a request joins the
        batch mid-span: the join takes effect at the end of the
        iteration in progress, i.e. at boundary ``j``.  Clamps to ``k``
        when ``elapsed_s`` lands at (or FP-rounds past) the span's end.
        Element ``j-1`` of :meth:`span_cumlat` is ``span(ctx0,
        j).latency_s``, so one search over that vector finds ``j``.
        """
        cum = self.span_cumlat(ctx0, k)
        return min(int(np.searchsorted(cum, elapsed_s, side="left")) + 1, k)


def request_decode_costs(
    spec: ModelSpec,
    replica: ReplicaResources,
    method: Method,
    ctx_len: int,
    calib: Calibration = DEFAULT_CALIBRATION,
) -> RequestDecodeCosts:
    """Per-iteration costs of one request with ``ctx_len`` cached tokens.

    Thin wrapper over :class:`BatchCostModel`; construct the model once
    instead when evaluating many contexts.
    """
    return BatchCostModel(spec, replica, method, calib).request_costs(ctx_len)


def iteration_latency(
    spec: ModelSpec,
    replica: ReplicaResources,
    method: Method,
    ctx_lens: list[int],
    calib: Calibration = DEFAULT_CALIBRATION,
) -> IterationTiming:
    """Latency of one continuous-batching iteration over ``ctx_lens``.

    Thin wrapper over :class:`BatchCostModel` (see
    :meth:`BatchCostModel.iteration`).
    """
    return BatchCostModel(spec, replica, method, calib).iteration(ctx_lens)
