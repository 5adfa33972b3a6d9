"""Pluggable arrival processes for trace generation.

The paper evaluates under Poisson arrivals only (§7.1), but the serving
systems this repo grows toward are judged on tail metrics under
realistic load — bursty, diurnal, multi-tenant.  This module makes the
arrival process a first-class, declarative axis, mirroring the
:mod:`repro.methods.spec` design:

* an **open registry** of :class:`ArrivalProcess` families
  (:func:`register_arrival`), each turning ``(rng, rps, n)`` plus
  keyword parameters into ``n`` absolute arrival times;
* a frozen, JSON-friendly :class:`ArrivalSpec` (family + parameters)
  with a compact string grammar for CLIs, scenarios and sweep axes::

      poisson
      gamma?cv=3.0
      mmpp?burst=4.0,duty=0.1,dwell=20.0
      diurnal?amp=0.8,period=600.0

Built-in families:

``constant``
    Deterministic gaps of exactly ``1/rps`` — the zero-variance floor.
``poisson``
    Exponential inter-arrivals (the paper's / DistServe's default).
    Reproduces the historical ``generate_trace`` stream bit-for-bit:
    it draws the same single ``rng.exponential`` block first, so every
    pre-existing trace, artifact and golden render is unchanged.
``gamma``
    Gamma-distributed gaps with coefficient of variation ``cv``
    (``cv=1`` is Poisson-like, ``cv>1`` bursty, ``cv<1`` smoothed).
``mmpp``
    Two-state Markov-modulated Poisson process: a base state and a
    burst state whose rate is ``burst``× higher, occupied a ``duty``
    fraction of time with mean burst dwell ``dwell`` seconds.  The
    long-run rate is exactly ``rps``.
``diurnal``
    Inhomogeneous Poisson with a sinusoidal rate
    ``λ(t) = rps · (1 + amp · sin(2πt/period))`` (thinning sampler) —
    a compressed day/night cycle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..spec import Family, Param, Registry, Spec, split_list

__all__ = [
    "ArrivalParam",
    "ArrivalProcess",
    "ArrivalSpec",
    "register_arrival",
    "get_arrival_process",
    "arrival_processes",
    "has_arrival_process",
    "arrival_spec",
    "parse_arrival",
    "canonical_arrival",
    "split_arrival_list",
]

#: A family parameter: the shared :class:`~repro.spec.Param`.
ArrivalParam = Param


class ArrivalProcess(Family):
    """Base class for arrival-process families.

    Subclass, set :attr:`params`, implement :meth:`sample_arrivals`
    (and optionally :meth:`validate`), then register with
    :func:`register_arrival` — the family becomes usable everywhere an
    arrival reference is accepted (``generate_trace``,
    ``Scenario(arrival=…)``, ``--arrival``, sweep axes).
    """

    #: Trace-shaping families (``sessions``) set this and implement
    #: :meth:`build_trace` instead of :meth:`sample_arrivals`: their
    #: request *lengths* depend on prior requests (shared prefixes), so
    #: :func:`~repro.workload.traces.generate_trace` delegates the whole
    #: trace to the family rather than just the arrival times.
    builds_trace: bool = False

    def sample_arrivals(self, rng: np.random.Generator, rps: float,
                        n: int, **params) -> np.ndarray:
        """``n`` nondecreasing absolute arrival times (seconds > 0)."""
        raise NotImplementedError

    def build_trace(self, rng: np.random.Generator, rps: float, n: int,
                    dataset, max_context: int | None, slo_tier: int,
                    **params) -> tuple[list[dict], int, int]:
        """Whole-trace hook for ``builds_trace`` families: returns
        (records, n_input_clipped, n_output_clipped), where each record
        holds the :class:`~repro.workload.traces.TraceRequest` fields
        except ``request_id`` (assigned after the arrival-order sort)."""
        raise NotImplementedError


_ARRIVALS = Registry("arrival process", ArrivalProcess, role="arrival",
                     key="arrival_processes", instances=True)
register_arrival = _ARRIVALS.register
get_arrival_process = _ARRIVALS.get
arrival_processes = _ARRIVALS.catalog
has_arrival_process = _ARRIVALS.has


@dataclass(frozen=True)
class ArrivalSpec(Spec):
    """A declarative arrival-process definition: family + parameters
    (family defaults fill the rest at sample time)."""

    kind: str
    params: tuple[tuple[str, object], ...] = ()

    registry = _ARRIVALS

    def sample(self, rng: np.random.Generator, rps: float,
               n: int) -> np.ndarray:
        """``n`` absolute arrival times at long-run rate ``rps``."""
        if rps <= 0:
            raise ValueError(f"rps must be positive, got {rps}")
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        return self.entry().sample_arrivals(rng, rps, n,
                                            **self.resolved_params())


parse_arrival = ArrivalSpec.parse
arrival_spec = ArrivalSpec.from_reference
canonical_arrival = ArrivalSpec.canonical_of
split_arrival_list = split_list


# -- built-in families --------------------------------------------------------

@register_arrival("constant")
class ConstantArrivals(ArrivalProcess):
    description = "deterministic gaps of exactly 1/rps (zero variance)"
    def sample_arrivals(self, rng, rps, n, **params):
        return np.arange(1, n + 1, dtype=np.float64) / rps


@register_arrival("poisson")
class PoissonArrivals(ArrivalProcess):
    description = "exponential inter-arrivals (the paper's §7.1 default)"
    def sample_arrivals(self, rng, rps, n, **params):
        # One exponential block, drawn first: byte-compatible with the
        # historical generate_trace RNG stream (traces, artifacts and
        # golden renders of every pre-arrival-process run are unchanged).
        gaps = rng.exponential(scale=1.0 / rps, size=n)
        return np.cumsum(gaps)


@register_arrival("gamma")
class GammaArrivals(ArrivalProcess):
    description = "gamma gaps with coefficient of variation cv (bursty >1)"
    params = {
        "cv": ArrivalParam(2.0, "coefficient of variation of the gaps"),
    }

    def validate(self, *, cv):
        if cv <= 0:
            raise ValueError(f"gamma cv must be positive, got {cv}")

    def sample_arrivals(self, rng, rps, n, *, cv):
        shape = 1.0 / (cv * cv)
        scale = (cv * cv) / rps          # mean gap stays 1/rps
        gaps = rng.gamma(shape, scale, size=n)
        return np.cumsum(gaps)


@register_arrival("mmpp")
class MMPPArrivals(ArrivalProcess):
    description = "2-state Markov-modulated Poisson bursts (long-run rps)"
    params = {
        "burst": ArrivalParam(4.0, "burst-state rate multiplier (>= 1)"),
        "duty": ArrivalParam(0.1, "long-run fraction of time in burst"),
        "dwell": ArrivalParam(20.0, "mean burst-state dwell, seconds"),
    }

    def validate(self, *, burst, duty, dwell):
        if burst < 1:
            raise ValueError(f"mmpp burst must be >= 1, got {burst}")
        if not 0 < duty < 1:
            raise ValueError(f"mmpp duty must be in (0, 1), got {duty}")
        if dwell <= 0:
            raise ValueError(f"mmpp dwell must be positive, got {dwell}")

    def sample_arrivals(self, rng, rps, n, *, burst, duty, dwell):
        # Base rate chosen so the time-averaged rate is exactly rps.
        base = rps / (1.0 - duty + duty * burst)
        rates = (base, base * burst)
        dwells = (dwell * (1.0 - duty) / duty, dwell)
        times = np.empty(n, dtype=np.float64)
        t, state = 0.0, 0
        boundary = rng.exponential(dwells[state])
        i = 0
        while i < n:
            gap = rng.exponential(1.0 / rates[state])
            if t + gap < boundary:
                t += gap
                times[i] = t
                i += 1
            else:
                # Memorylessness: restarting the exponential at the
                # state switch leaves the process law unchanged.
                t = boundary
                state = 1 - state
                boundary = t + rng.exponential(dwells[state])
        return times


@register_arrival("diurnal")
class DiurnalArrivals(ArrivalProcess):
    description = "sinusoidal rate rps*(1 + amp*sin(2πt/period)), thinned"
    params = {
        "amp": ArrivalParam(0.5, "relative amplitude of the rate swing"),
        "period": ArrivalParam(600.0, "cycle length, seconds"),
    }

    def validate(self, *, amp, period):
        if not 0 <= amp <= 1:
            raise ValueError(f"diurnal amp must be in [0, 1], got {amp}")
        if period <= 0:
            raise ValueError(f"diurnal period must be positive, got {period}")

    def sample_arrivals(self, rng, rps, n, *, amp, period):
        lam_max = rps * (1.0 + amp)
        omega = 2.0 * np.pi / period
        times = np.empty(n, dtype=np.float64)
        t = 0.0
        i = 0
        while i < n:                      # Lewis–Shedler thinning
            t += rng.exponential(1.0 / lam_max)
            accept = (1.0 + amp * np.sin(omega * t)) / (1.0 + amp)
            if rng.random() < accept:
                times[i] = t
                i += 1
        return times


@register_arrival("sessions")
class SessionArrivals(ArrivalProcess):
    description = ("multi-turn sessions sharing growing prefixes "
                   "(arrivals Poisson per session, think-time gaps)")
    params = {
        "turns": ArrivalParam(4.0, "mean turns per session (>= 1)"),
        "think_time": ArrivalParam(
            30.0, "mean think time between turns, seconds"),
        "prefix_growth": ArrivalParam(
            0.3, "follow-up new tokens as a fraction of a sampled input"),
        "tiers": ArrivalParam(
            1.0, "SLO classes, assigned uniformly per session"),
    }
    builds_trace = True

    def validate(self, *, turns, think_time, prefix_growth, tiers):
        if turns < 1:
            raise ValueError(f"sessions turns must be >= 1, got {turns}")
        if think_time <= 0:
            raise ValueError(
                f"sessions think_time must be positive, got {think_time}"
            )
        if not 0 < prefix_growth <= 1:
            raise ValueError(
                f"sessions prefix_growth must be in (0, 1], got "
                f"{prefix_growth}"
            )
        if tiers < 1 or tiers != int(tiers):
            raise ValueError(
                f"sessions tiers must be a positive integer, got {tiers}"
            )

    def sample_arrivals(self, rng, rps, n, **params):
        raise ValueError(
            "the 'sessions' family shapes whole traces (each turn's "
            "input embeds the prior conversation), so bare arrival "
            "times are not defined; generate it via generate_trace or "
            "a Scenario"
        )

    def build_trace(self, rng, rps, n, dataset, max_context, slo_tier, *,
                    turns, think_time, prefix_growth, tiers):
        """Sessions start as a Poisson process at rate ``rps / turns``
        (so the long-run *request* rate stays ~``rps``); each runs
        ``1 + Poisson(turns - 1)`` turns separated by exponential think
        times.  Turn ``t+1``'s prompt is the full prior conversation
        (inputs + outputs — the shareable prefix) plus fresh tokens
        sized as ``prefix_growth`` of a freshly-sampled dataset input.
        ``max_context`` clips as in :func:`generate_trace` and trims
        ``prefix_len`` so at least one new token always prefills."""
        session_rate = rps / turns
        records: list[dict] = []
        n_in_clipped = n_out_clipped = 0
        t_start = 0.0
        sid = 0
        while len(records) < n:
            t_start += rng.exponential(1.0 / session_rate)
            n_turns = 1 + int(rng.poisson(turns - 1.0))
            tier = slo_tier + int(rng.integers(int(tiers)))
            t = t_start
            context = 0        # prior conversation tokens (in + out)
            for turn in range(n_turns):
                if len(records) >= n:
                    break
                in_sample, out_sample = dataset.sample_request_lengths(
                    1, rng)
                output_len = int(out_sample[0])
                if turn == 0:
                    prefix = 0
                    input_len = int(in_sample[0])
                else:
                    prefix = context
                    input_len = prefix + max(
                        1, int(round(int(in_sample[0]) * prefix_growth)))
                if max_context is not None:
                    if output_len > max_context - 1:
                        output_len = max_context - 1
                        n_out_clipped += 1
                    if input_len > max_context - output_len:
                        input_len = max_context - output_len
                        prefix = min(prefix, input_len - 1)
                        n_in_clipped += 1
                records.append({
                    "arrival_s": float(t),
                    "input_len": input_len,
                    "output_len": output_len,
                    "session_id": sid,
                    "prefix_len": prefix,
                    "slo_tier": tier,
                })
                context = input_len + output_len
                t += rng.exponential(think_time)
            sid += 1
        return records, n_in_clipped, n_out_clipped
