"""Request trace generation (§7.1: arrivals at a target RPS).

A trace is a list of :class:`TraceRequest` — arrival time plus sampled
input/output lengths — that the simulator replays.  Arrivals follow a
pluggable :class:`~repro.workload.arrivals.ArrivalProcess` (default:
the paper's Poisson process, as in DistServe); traces from different
datasets/processes can be interleaved into one multi-tenant trace with
:func:`merge_traces`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .arrivals import ArrivalSpec, get_arrival_process
from .datasets import DatasetSpec, get_dataset

__all__ = ["TraceRequest", "Trace", "generate_trace", "merge_traces"]


@dataclass(frozen=True)
class TraceRequest:
    """One request of a workload trace.

    ``session_id``/``prefix_len`` carry the multi-turn structure of
    session workloads: requests of one conversation share a session id,
    and ``prefix_len`` is how many leading prompt tokens repeat the
    prior conversation (the KV-store-shareable prefix; always <
    ``input_len`` — at least one token is new).  ``slo_tier`` is the
    request's service class (0 = strictest), what service-aware
    compression selection keys on.  The defaults are what every
    single-shot trace has always meant, so existing construction,
    serialization and golden runs are unchanged.
    """

    request_id: int
    arrival_s: float
    input_len: int
    output_len: int
    session_id: int = -1
    prefix_len: int = 0
    slo_tier: int = 0

    @property
    def total_len(self) -> int:
        return self.input_len + self.output_len


class Trace(list):
    """A list of :class:`TraceRequest` plus clipping metadata.

    Behaves exactly like the plain list :func:`generate_trace` used to
    return, with two extra counters recording how many requests the
    ``max_context`` cap reshaped — so experiments on context-limited
    models (Falcon-2K on arXiv) can report how far the replayed lengths
    drifted from the dataset's published distribution.
    """

    #: Requests whose sampled input length was shortened.
    n_input_clipped: int = 0
    #: Requests whose sampled output length was truncated.
    n_output_clipped: int = 0

    def __init__(self, requests=(), n_input_clipped: int = 0,
                 n_output_clipped: int = 0) -> None:
        super().__init__(requests)
        self.n_input_clipped = n_input_clipped
        self.n_output_clipped = n_output_clipped


def generate_trace(
    dataset: str | DatasetSpec,
    rps: float,
    n_requests: int,
    seed: int = 0,
    max_context: int | None = None,
    arrival: str | ArrivalSpec = "poisson",
    slo_tier: int = 0,
) -> Trace:
    """Sample a trace of ``n_requests`` from ``dataset``.

    Parameters
    ----------
    dataset:
        Dataset name or spec (Table 4).
    rps:
        Long-run mean arrival rate, requests per second.
    n_requests:
        Trace length.
    seed:
        Randomness seed; traces are fully deterministic given it.
    max_context:
        Optional model context cap (how the paper runs Falcon's 2K
        window on the arXiv dataset): output lengths are truncated to
        ``max_context - 1`` first — which silently reshapes the
        output-length distribution, not just the inputs — then input
        lengths are clipped so ``input + output <= max_context``.  The
        returned :class:`Trace` records both counts
        (``n_input_clipped`` / ``n_output_clipped``).  Must be >= 2 —
        one input and one output token are the smallest expressible
        request.
    arrival:
        Arrival process: a grammar string (``"poisson"``,
        ``"mmpp?burst=4,duty=0.1"``, …) or an
        :class:`~repro.workload.arrivals.ArrivalSpec`.  The default
        Poisson process reproduces the historical trace stream
        bit-for-bit.  Trace-*shaping* families (``"sessions?turns=…"``)
        build the whole trace — multi-turn requests whose prompts embed
        the prior conversation as a shared prefix.
    slo_tier:
        Service class stamped on every request (session workloads may
        add per-session classes on top; see the ``sessions`` family's
        ``tiers`` parameter).
    """
    if rps <= 0:
        raise ValueError(f"rps must be positive, got {rps}")
    if n_requests < 1:
        raise ValueError(f"n_requests must be >= 1, got {n_requests}")
    if max_context is not None and max_context < 2:
        raise ValueError(
            f"max_context must be >= 2 (one prompt token, one output "
            f"token), got {max_context}"
        )
    if slo_tier < 0:
        raise ValueError(f"slo_tier must be >= 0, got {slo_tier}")
    spec = dataset if isinstance(dataset, DatasetSpec) else get_dataset(dataset)
    process = ArrivalSpec.from_reference(arrival)
    rng = np.random.default_rng(seed)
    family = get_arrival_process(process.kind)
    if family.builds_trace:
        records, n_in, n_out = family.build_trace(
            rng, rps, n_requests, spec, max_context, slo_tier,
            **process.resolved_params())
        records.sort(key=lambda r: r["arrival_s"])
        return Trace(
            (TraceRequest(request_id=i, **rec)
             for i, rec in enumerate(records)),
            n_input_clipped=n_in,
            n_output_clipped=n_out,
        )
    arrivals = process.sample(rng, rps, n_requests)
    in_lens, out_lens = spec.sample_request_lengths(n_requests, rng)
    n_in_clipped = n_out_clipped = 0
    if max_context is not None:
        raw_out = out_lens
        out_lens = np.minimum(out_lens, max_context - 1)
        n_out_clipped = int(np.count_nonzero(raw_out > out_lens))
        raw_in = in_lens
        in_lens = np.minimum(in_lens, max_context - out_lens)
        n_in_clipped = int(np.count_nonzero(raw_in > in_lens))
    return Trace(
        (TraceRequest(request_id=i, arrival_s=float(arrivals[i]),
                      input_len=int(in_lens[i]), output_len=int(out_lens[i]),
                      slo_tier=slo_tier)
         for i in range(n_requests)),
        n_input_clipped=n_in_clipped,
        n_output_clipped=n_out_clipped,
    )


def merge_traces(*traces: list[TraceRequest]) -> Trace:
    """Interleave several traces into one multi-tenant trace.

    Requests are merged by arrival time (ties keep the input order,
    tenant-by-tenant) and renumbered ``0..n-1`` so the result is a
    valid simulator trace; clip counts sum over the tenants that carry
    them, and session ids are remapped to stay unique across tenants
    (two session traces both starting at session 0 must not alias in a
    prefix cache).  Each tenant's trace is typically generated from a
    different dataset and/or arrival process::

        merge_traces(
            generate_trace("cocktail", 0.5, 60, seed=1),
            generate_trace("imdb", 4.0, 200, seed=2, arrival="mmpp"),
        )
    """
    if not traces:
        raise ValueError("merge_traces needs at least one trace")
    remapped: list[TraceRequest] = []
    next_sid = 0
    for trace in traces:
        sids = sorted({r.session_id for r in trace if r.session_id >= 0})
        mapping = {s: next_sid + i for i, s in enumerate(sids)}
        next_sid += len(sids)
        for r in trace:
            if r.session_id >= 0:
                r = dataclasses.replace(r,
                                        session_id=mapping[r.session_id])
            remapped.append(r)
    merged = sorted(remapped, key=lambda r: r.arrival_s)
    return Trace(
        (dataclasses.replace(r, request_id=i)
         for i, r in enumerate(merged)),
        n_input_clipped=sum(getattr(t, "n_input_clipped", 0)
                            for t in traces),
        n_output_clipped=sum(getattr(t, "n_output_clipped", 0)
                             for t in traces),
    )
