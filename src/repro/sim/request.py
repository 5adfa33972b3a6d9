"""Request lifecycle bookkeeping for the serving simulator.

A :class:`SimRequest` tracks one request from arrival to completion and
accumulates the JCT decomposition the paper reports (Fig. 10): queueing,
prefill compute, quantization, KV communication, decode, per-iteration
dequantization (comparators) and Eq. 4 approximation (HACK), plus the
KV-memory-access time inside decode (§2.1's 16–33% metric).

It also carries the serving-metric substrate: the first output token is
produced by prefill (``prefill_end``), and every decode token's
completion time is recorded — per iteration on the token path, as one
closed-form time vector per request on the fast path — so TTFT and
time-between-tokens (TBT) statistics are derivable identically in both
step modes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..methods.base import Method
from ..workload.traces import TraceRequest

__all__ = ["SimRequest", "BUCKETS", "nearest_rank"]

#: Decomposition bucket names, in the paper's Fig. 10 order.
BUCKETS = ("queue", "prefill", "quant", "comm", "dequant_or_approx", "decode")


def nearest_rank(values_sorted, p: float) -> float:
    """Nearest-rank percentile of an ascending sequence (0 when empty)."""
    if not 0 <= p <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {p}")
    n = len(values_sorted)
    if n == 0:
        return 0.0
    rank = max(0, math.ceil(p / 100.0 * n) - 1)
    return float(values_sorted[rank])


@dataclass
class SimRequest:
    """One in-flight request and its accumulated time decomposition."""

    trace: TraceRequest
    prefill_replica: int = -1
    decode_replica: int = -1

    # Timeline markers (absolute simulation seconds).
    prefill_start: float = -1.0
    prefill_end: float = -1.0
    transfer_end: float = -1.0
    decode_start: float = -1.0
    finish: float = -1.0

    # Accumulated buckets (seconds).
    prefill_s: float = 0.0
    quant_s: float = 0.0
    comm_s: float = 0.0
    decode_s: float = 0.0
    dequant_s: float = 0.0
    approx_s: float = 0.0
    kv_access_s: float = 0.0   # subset of decode_s: KV reads over HBM

    #: KV-store integration (set only when the simulator runs with a
    #: kvstore, a selection policy or a degrading admission policy
    #: configured; ``method`` is the per-request compression method
    #: prefill ran — the scenario method when neither selection nor
    #: admission chose another).
    method: Method | None = None
    #: Method the admission layer degraded this request to at arrival
    #: (elastic admission control; ``None`` when admitted at full
    #: quality).  Judged once — it survives crash retries, overriding
    #: any selection policy on the re-prefill too.
    admitted_method: Method | None = None
    #: Prompt tokens whose KV the prefix cache served (prefill skipped).
    prefix_hit_tokens: int = 0
    #: Time spent reading the cached prefix out of its tier (accrues to
    #: the ``comm`` bucket).
    cache_read_s: float = 0.0
    #: Tier name the prefix hit landed in (None on miss / no store).
    cache_tier: str | None = None

    #: Whether the KV took the CPU-swap detour (§5.1 step 6).
    swapped: bool = False
    #: Whether a non-swapping placement policy refused admission (the
    #: request prefilled but never decoded; it carries no completion).
    rejected: bool = False
    #: Whether the recovery policy gave up on this request (fault
    #: injection only; the request carries no completion).
    failed: bool = False
    #: Times this request re-entered the serving path after a fault.
    n_retries: int = 0
    #: Processing seconds thrown away by faults (crashed prefill work,
    #: flapped transfers, lost decode progress).
    wasted_compute_s: float = 0.0
    #: Monotonic attempt counter guarding stale per-request events
    #: (``transfer_done`` from before a crash must not land).
    attempt: int = 0
    #: Set on lost-KV recovery when a KV store is configured: the next
    #: prefill probes the store for the *whole* prompt (the crashed
    #: attempt's writeback may serve it), not just the session prefix.
    kv_refetch: bool = False
    tokens_generated: int = 0
    #: Decode-memory bytes reserved for this request.
    reserved_bytes: float = 0.0
    #: Decode-token completion times, as appended chunks: floats on the
    #: token path, one closed-form array (never mutated) on the span
    #: path.
    _token_chunks: list = field(default_factory=list, repr=False,
                                compare=False)
    _token_times: np.ndarray | None = field(
        default=None, repr=False, compare=False)
    _tbt_gaps: np.ndarray | None = field(
        default=None, repr=False, compare=False)
    #: Memoized decomposition — buckets are final once ``finish`` is
    #: set, so the first post-completion call caches for all aggregate
    #: consumers (mean decomposition/ratios, summary, records).
    _decomposition: dict | None = field(
        default=None, repr=False, compare=False)

    @property
    def request_id(self) -> int:
        return self.trace.request_id

    @property
    def arrival(self) -> float:
        return self.trace.arrival_s

    @property
    def done(self) -> bool:
        return self.finish >= 0.0

    @property
    def jct(self) -> float:
        """Job completion time: arrival → last token."""
        if not self.done:
            raise ValueError(f"request {self.request_id} has not finished")
        return self.finish - self.arrival

    def busy_s(self) -> float:
        """Processing seconds accrued so far (every bucket but queue)."""
        return (self.prefill_s + self.quant_s + self.comm_s + self.decode_s
                + self.dequant_s + self.approx_s)

    @property
    def queue_s(self) -> float:
        """Time not attributable to any processing bucket.

        Under fault injection this also absorbs retry backoff waits and
        any earlier attempts' processing time (attempts wiped by
        :meth:`reset_for_retry` re-land here; their cost is tracked
        separately in ``wasted_compute_s``).
        """
        return max(0.0, self.jct - self.busy_s())

    @property
    def recovered(self) -> bool:
        """Finished, but only after at least one fault retry."""
        return self.done and self.n_retries > 0

    @property
    def terminal(self) -> str:
        """The request's terminal state: ``finished`` / ``rejected`` /
        ``failed`` (``in_flight`` while the simulation still runs)."""
        if self.done:
            return "finished"
        if self.failed:
            return "failed"
        if self.rejected:
            return "rejected"
        return "in_flight"

    def reset_for_retry(self, wasted_s: float | None = None) -> None:
        """Wipe all progress before a from-scratch retry (lost KV).

        ``wasted_s`` overrides the wasted-work charge for this attempt
        (a mid-prefill crash prorates the batch's planned time, since
        the buckets hold the full batch duration up front); by default
        the attempt's accrued processing time is charged.
        """
        self.wasted_compute_s += self.busy_s() if wasted_s is None \
            else wasted_s
        self.prefill_replica = -1
        self.decode_replica = -1
        self.prefill_start = -1.0
        self.prefill_end = -1.0
        self.transfer_end = -1.0
        self.decode_start = -1.0
        self.prefill_s = 0.0
        self.quant_s = 0.0
        self.comm_s = 0.0
        self.decode_s = 0.0
        self.dequant_s = 0.0
        self.approx_s = 0.0
        self.kv_access_s = 0.0
        self.prefix_hit_tokens = 0
        self.cache_read_s = 0.0
        self.cache_tier = None
        self.swapped = False
        self.tokens_generated = 0
        self.reserved_bytes = 0.0
        self._token_chunks = []
        self._token_times = None
        self._tbt_gaps = None
        self._decomposition = None

    # -- serving metrics (TTFT / TBT) -----------------------------------------

    @property
    def first_token_s(self) -> float:
        """Absolute time of the first output token (prefill produces it)."""
        return self.prefill_end

    @property
    def ttft(self) -> float:
        """Time to first token: arrival → end of the prefill pass."""
        if self.prefill_end < 0.0:
            raise ValueError(f"request {self.request_id} has not prefilled")
        return self.prefill_end - self.arrival

    def add_token_time(self, t: float) -> None:
        """Record one decode token's completion (token-path step)."""
        self._token_chunks.append(t)

    def add_token_times(self, times: np.ndarray) -> None:
        """Record a run of decode token completions (fast-path step).

        ``times`` is kept, not copied, and must not be mutated by any
        holder.
        """
        self._token_chunks.append(times)

    def token_times(self) -> np.ndarray:
        """Absolute completion times of the decode tokens (length
        ``output_len - 1``; the first token is prefill's)."""
        if self._token_times is None:
            chunks = self._token_chunks
            if len(chunks) == 1 and isinstance(chunks[0], np.ndarray):
                joined = chunks[0]
            else:
                parts = [np.atleast_1d(np.asarray(c, dtype=np.float64))
                         for c in chunks]
                joined = np.concatenate(parts) if parts \
                    else np.empty(0, dtype=np.float64)
            if not self.done:
                return joined
            self._token_times = joined
        return self._token_times

    def tbt_gaps(self) -> np.ndarray:
        """Inter-token gaps after the first token (length
        ``output_len - 1``).

        The gap between prefill's first token and the first decode
        token includes the KV transfer and any batching wait — exactly
        the stall a user of a disaggregated deployment observes, and
        the one KV compression shrinks.  Memoized once finished (the
        aggregate consumers — summary, records — hit it repeatedly).
        """
        if self._tbt_gaps is not None:
            return self._tbt_gaps
        times = self.token_times()
        if times.size == 0:
            gaps = times
        else:
            gaps = np.diff(np.concatenate(([self.first_token_s], times)))
        if self.done:
            self._tbt_gaps = gaps
        return gaps

    def mean_tbt(self) -> float:
        """Mean inter-token gap (0 for single-token requests)."""
        gaps = self.tbt_gaps()
        return float(gaps.mean()) if gaps.size else 0.0

    def tbt_percentile(self, p: float) -> float:
        """Nearest-rank percentile of this request's inter-token gaps."""
        return nearest_rank(np.sort(self.tbt_gaps()), p)

    @property
    def normalized_latency(self) -> float:
        """JCT per output token (the DistServe/vLLM normalized metric)."""
        return self.jct / self.trace.output_len

    def accrue_decode(self, decode_s: float, dequant_s: float,
                      approx_s: float, kv_read_s: float,
                      tokens: int = 1) -> None:
        """Credit ``tokens`` decode iterations' batch-wide bucket sums.

        Every request in a batch waits through the whole batch's
        iteration, so batch totals — not per-request shares — are what
        accumulate.  The token path passes one iteration's sums;
        the span fast path passes a whole span's closed-form totals.
        """
        self.decode_s += decode_s
        self.dequant_s += dequant_s
        self.approx_s += approx_s
        self.kv_access_s += kv_read_s
        self.tokens_generated += tokens

    def decomposition(self) -> dict[str, float]:
        """Bucket → seconds (the Fig. 10 stacked bars).

        Computed once per finished request; returns a fresh copy each
        call (callers mutate it, e.g. :meth:`ratios`).
        """
        if self._decomposition is None:
            self._decomposition = {
                "queue": self.queue_s,
                "prefill": self.prefill_s,
                "quant": self.quant_s,
                "comm": self.comm_s,
                "dequant_or_approx": self.dequant_s + self.approx_s,
                "decode": self.decode_s,
            }
        return dict(self._decomposition)

    def record(self) -> dict:
        """Flat JSON-ready record of this request (artifact schema v4).

        Keys are stable: downstream tooling (``repro.api.artifact``,
        ``repro.cli export``) depends on them.  Schema v2 added the
        serving metrics (``ttft_s``, ``tbt_*``, ``normalized_latency_s``)
        on top of the v1 keys.  When the simulator runs with a KV
        store, a selection policy or a degrading admission policy
        (schema v3 runs), four extra keys appear — ``method_selected``,
        ``prefix_hit_tokens``, ``cache_read_s``, ``cache_tier`` — on
        every record (the engine stamps ``method`` on all requests in
        that mode, so record shape stays uniform within a run).
        Schema v4 records *every* terminal request — finished, rejected
        and failed — with a ``terminal`` key plus
        reliability accounting (``n_retries``, ``wasted_compute_s``,
        ``recovered``); the completion-dependent keys (``jct_s``,
        ``decomposition_s``, ``tbt_*``, …) appear only on finished
        records, and ``ttft_s`` on any record that prefilled.
        """
        rec = {
            "request_id": self.request_id,
            "arrival_s": self.arrival,
            "input_len": self.trace.input_len,
            "output_len": self.trace.output_len,
            "prefill_replica": self.prefill_replica,
            "decode_replica": self.decode_replica,
            "swapped": self.swapped,
            "terminal": self.terminal,
            "n_retries": self.n_retries,
            "wasted_compute_s": self.wasted_compute_s,
            "recovered": self.recovered,
        }
        if self.done:
            rec.update({
                "jct_s": self.jct,
                "decomposition_s": self.decomposition(),
                "kv_access_s": self.kv_access_s,
                "ttft_s": self.ttft,
                "tbt_mean_s": self.mean_tbt(),
                "tbt_p99_s": self.tbt_percentile(99),
                "tbt_max_s": float(self.tbt_gaps().max())
                if self.tbt_gaps().size else 0.0,
                "normalized_latency_s": self.normalized_latency,
            })
        elif self.prefill_end >= 0.0:
            rec["ttft_s"] = self.ttft
        if self.method is not None:
            rec["method_selected"] = self.method.name
            rec["prefix_hit_tokens"] = self.prefix_hit_tokens
            rec["cache_read_s"] = self.cache_read_s
            rec["cache_tier"] = self.cache_tier
        return rec

    def ratios(self, include_queue: bool = False) -> dict[str, float]:
        """Bucket → fraction.

        With ``include_queue=False`` (the paper's Fig. 1–4 convention,
        where stacked ratios fill to 100%), fractions are of the summed
        processing buckets; otherwise of the full JCT.
        """
        decomp = self.decomposition()
        if not include_queue:
            del decomp["queue"]
        total = sum(decomp.values())
        if total <= 0:
            return {k: 0.0 for k in decomp}
        return {k: v / total for k, v in decomp.items()}
