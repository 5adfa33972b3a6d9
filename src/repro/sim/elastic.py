"""Elastic cluster control: autoscaling and admission policies.

The paper evaluates fixed prefill/decode fleets; production serving
must track demand.  This module adds two open registries in the
established ``family?k=v`` grammar (mirroring
:mod:`repro.sim.scheduling` / :mod:`repro.sim.recovery`):

* **Autoscalers** decide, at a fixed evaluation interval, how many of
  the *provisioned* replicas should be powered.  The engine reconciles
  toward the target: scale-up boots powered-off replicas with a
  cold-start latency; scale-down drains replicas (no new work) and
  retires them only once idle — in-flight work is never killed, and
  the lifecycle composes with the fault machinery's crash epochs.

      static                                 (default; never evaluates)
      reactive?queue_hi=8.0,queue_lo=1.0,cooldown_s=60.0
      slo?target=0.9,window_s=120.0
      schedule?plan=0:1.0|450:0.5,period_s=900.0

* **Admission policies** see every fresh arrival and may accept it,
  shed it (a rejected terminal state), or *degrade* it — stamp a
  cheaper compression method the prefill stage will honor instead of
  the scenario method, reusing the KVServe service-tier framing the
  selection policies established:

      accept_all                             (default)
      shed?queue_max=64.0,tier=0.0
      degrade?tier=1.0,method=hack_int4

Both registries are open: subclass :class:`AutoscalerPolicy` /
:class:`AdmissionPolicy` and decorate with :func:`register_autoscaler`
/ :func:`register_admission`.  The ``static`` autoscaler plus
``accept_all`` admission is byte-identical to an unarmed engine — the
elastic path adds zero events and changes no hot-path decision.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..spec import Param, Policy, Registry, Spec, split_list

__all__ = [
    "DEFAULT_AUTOSCALER",
    "DEFAULT_ADMISSION",
    "ElasticParam",
    "AutoscalerPolicy",
    "AdmissionPolicy",
    "AutoscalerSpec",
    "AdmissionSpec",
    "register_autoscaler",
    "register_admission",
    "get_autoscaler",
    "get_admission",
    "autoscaler_policies",
    "admission_policies",
    "has_autoscaler_policy",
    "has_admission_policy",
    "autoscaler_spec",
    "admission_spec",
    "parse_autoscaler",
    "parse_admission",
    "canonical_autoscaler",
    "canonical_admission",
    "split_autoscaler_list",
    "split_admission_list",
]

#: The do-nothing defaults an armed engine falls back to.
DEFAULT_AUTOSCALER = "static"
DEFAULT_ADMISSION = "accept_all"

#: A policy parameter: the shared :class:`~repro.spec.Param` (a float,
#: or a word-safe string — e.g. a method name or a ``t:frac|t:frac``
#: schedule plan).
ElasticParam = Param


# -- policy base classes ------------------------------------------------------

class AutoscalerPolicy(Policy):
    """Decides how many provisioned replicas should be powered.

    Subclasses set :attr:`name`, :attr:`description`, :attr:`params`
    and are registered with :func:`register_autoscaler`.  Instances
    receive their resolved parameters as the ``p`` mapping.  The engine
    calls :meth:`desired` every :meth:`interval_s` seconds while
    requests are outstanding and reconciles the fleet toward the
    returned ``(n_prefill, n_decode)`` target (clamped to
    ``[1, provisioned]`` per role).  Useful signals on the simulator:

    * ``sim.prefill_backlog()`` — queued + in-service + parked requests;
    * ``sim.recent_ttft_attainment(now, window_s, ttft_slo_s)`` — the
      sliding-window TTFT SLO attainment over recent finishes.
    """

    #: ``False`` opts out of evaluation events entirely (``static``):
    #: an armed-but-idle engine stays byte-identical to an unarmed one.
    evaluates: bool = True

    def interval_s(self) -> float:
        """Seconds between evaluations (``interval_s`` param)."""
        return float(self.p.get("interval_s", 10.0))

    def cold_start_s(self) -> float:
        """Boot latency for a powered-off replica (``cold_start_s``)."""
        return float(self.p.get("cold_start_s", 30.0))

    def initial(self, n_prefill: int, n_decode: int) -> tuple[int, int]:
        """Replica counts powered at t=0 (default: everything)."""
        return n_prefill, n_decode

    def desired(self, now: float, sim, n_prefill: int, n_decode: int,
                cur_prefill: int, cur_decode: int) -> tuple[int, int]:
        """The powered-replica target given provisioned and current
        counts (current = the engine's reconciliation target, which
        counts booting replicas but not draining ones)."""
        raise NotImplementedError

    @staticmethod
    def proportional(target_prefill: int, n_prefill: int,
                     n_decode: int) -> int:
        """A decode count keeping the provisioned prefill:decode ratio."""
        return max(1, round(target_prefill * n_decode / max(1, n_prefill)))


class AdmissionPolicy(Policy):
    """Decides the fate of every fresh arrival.

    :meth:`admit` returns ``None`` to accept, the string ``"shed"`` to
    reject the request outright (a terminal ``rejected`` state, counted
    as ``n_shed``), or a resolved :class:`~repro.methods.base.Method`
    to accept the request degraded — the prefill stage runs the request
    with that method instead of the scenario one.  Crash re-dispatches
    and retries bypass admission: a request is judged once, at arrival.
    """

    #: ``True`` when :meth:`admit` may return a Method; the engine then
    #: routes prefill through the per-request method path.
    may_degrade: bool = False

    def admit(self, now: float, req, sim):
        """``None`` (accept), ``"shed"``, or a Method (degrade)."""
        return None


# -- registries and specs ----------------------------------------------------

_AUTOSCALERS = Registry("autoscaler policy", AutoscalerPolicy,
                        role="autoscaler", key="autoscaler_policies")
_ADMISSIONS = Registry("admission policy", AdmissionPolicy,
                       role="admission", key="admission_policies")
register_autoscaler = _AUTOSCALERS.register
register_admission = _ADMISSIONS.register
get_autoscaler = _AUTOSCALERS.get
get_admission = _ADMISSIONS.get
autoscaler_policies = _AUTOSCALERS.catalog
admission_policies = _ADMISSIONS.catalog
has_autoscaler_policy = _AUTOSCALERS.has
has_admission_policy = _ADMISSIONS.has


@dataclass(frozen=True)
class AutoscalerSpec(Spec):
    """One declarative autoscaler reference: policy + parameters."""

    kind: str
    params: tuple[tuple[str, object], ...] = ()

    registry = _AUTOSCALERS


@dataclass(frozen=True)
class AdmissionSpec(Spec):
    """One declarative admission reference: policy + parameters."""

    kind: str
    params: tuple[tuple[str, object], ...] = ()

    registry = _ADMISSIONS


autoscaler_spec = AutoscalerSpec.from_reference
admission_spec = AdmissionSpec.from_reference
parse_autoscaler = AutoscalerSpec.parse
parse_admission = AdmissionSpec.parse
canonical_autoscaler = AutoscalerSpec.canonical_of
canonical_admission = AdmissionSpec.canonical_of
split_autoscaler_list = split_admission_list = split_list


# -- built-in autoscalers -----------------------------------------------------

@register_autoscaler
class StaticAutoscaler(AutoscalerPolicy):
    name = "static"
    description = ("fixed fleet: every provisioned replica stays "
                   "powered (the do-nothing default)")
    evaluates = False

    def desired(self, now, sim, n_prefill, n_decode, cur_prefill,
                cur_decode):
        return n_prefill, n_decode


@register_autoscaler
class ReactiveAutoscaler(AutoscalerPolicy):
    name = "reactive"
    description = ("queue-depth hysteresis: step one prefill replica "
                   "up/down when backlog per powered replica crosses "
                   "queue_hi/queue_lo (decode follows proportionally)")
    params = {
        "queue_hi": ElasticParam(
            8.0, "scale up when backlog per powered prefill replica "
                 "exceeds this"),
        "queue_lo": ElasticParam(
            1.0, "scale down when backlog per powered prefill replica "
                 "falls below this"),
        "cooldown_s": ElasticParam(
            60.0, "minimum seconds between scaling actions"),
        "interval_s": ElasticParam(10.0, "evaluation period, seconds"),
        "cold_start_s": ElasticParam(
            30.0, "boot latency for a powered-off replica, seconds"),
    }

    @classmethod
    def validate(cls, *, queue_hi, queue_lo, cooldown_s, interval_s,
                 cold_start_s):
        if queue_lo < 0:
            raise ValueError(
                f"reactive queue_lo must be >= 0, got {queue_lo}")
        if queue_hi <= queue_lo:
            raise ValueError(
                f"reactive queue_hi must exceed queue_lo, got "
                f"hi={queue_hi} lo={queue_lo}")
        if cooldown_s < 0:
            raise ValueError(
                f"reactive cooldown_s must be >= 0, got {cooldown_s}")
        if interval_s <= 0:
            raise ValueError(
                f"reactive interval_s must be > 0, got {interval_s}")
        if cold_start_s < 0:
            raise ValueError(
                f"reactive cold_start_s must be >= 0, got {cold_start_s}")

    def bind(self, sim):
        self._last_action = -float("inf")

    def desired(self, now, sim, n_prefill, n_decode, cur_prefill,
                cur_decode):
        if now - self._last_action < self.p["cooldown_s"]:
            return cur_prefill, cur_decode
        per_replica = sim.prefill_backlog() / max(1, cur_prefill)
        if per_replica > self.p["queue_hi"] and cur_prefill < n_prefill:
            self._last_action = now
            target = cur_prefill + 1
        elif per_replica < self.p["queue_lo"] and cur_prefill > 1:
            self._last_action = now
            target = cur_prefill - 1
        else:
            return cur_prefill, cur_decode
        return target, self.proportional(target, n_prefill, n_decode)


@register_autoscaler
class SLOAutoscaler(AutoscalerPolicy):
    name = "slo"
    description = ("SLO feedback: scale up when sliding-window TTFT "
                   "attainment drops below target, down when it is "
                   "comfortably met and the backlog is empty")
    params = {
        "target": ElasticParam(
            0.9, "TTFT attainment to defend, in (0, 1]"),
        "window_s": ElasticParam(
            120.0, "attainment window over recent finishes, seconds"),
        "ttft_s": ElasticParam(20.0, "TTFT SLO threshold, seconds"),
        "cooldown_s": ElasticParam(
            60.0, "minimum seconds between scaling actions"),
        "interval_s": ElasticParam(10.0, "evaluation period, seconds"),
        "cold_start_s": ElasticParam(
            30.0, "boot latency for a powered-off replica, seconds"),
    }

    @classmethod
    def validate(cls, *, target, window_s, ttft_s, cooldown_s, interval_s,
                 cold_start_s):
        if not 0 < target <= 1:
            raise ValueError(f"slo target must be in (0, 1], got {target}")
        if window_s <= 0:
            raise ValueError(f"slo window_s must be > 0, got {window_s}")
        if ttft_s <= 0:
            raise ValueError(f"slo ttft_s must be > 0, got {ttft_s}")
        if cooldown_s < 0:
            raise ValueError(
                f"slo cooldown_s must be >= 0, got {cooldown_s}")
        if interval_s <= 0:
            raise ValueError(
                f"slo interval_s must be > 0, got {interval_s}")
        if cold_start_s < 0:
            raise ValueError(
                f"slo cold_start_s must be >= 0, got {cold_start_s}")

    def bind(self, sim):
        self._last_action = -float("inf")

    def desired(self, now, sim, n_prefill, n_decode, cur_prefill,
                cur_decode):
        if now - self._last_action < self.p["cooldown_s"]:
            return cur_prefill, cur_decode
        attainment, n = sim.recent_ttft_attainment(
            now, self.p["window_s"], self.p["ttft_s"])
        backlog = sim.prefill_backlog()
        if n == 0:
            # Nothing finished recently: a growing queue with nothing
            # coming out the other end is the strongest up-signal there
            # is; an idle cluster is not a signal at all.
            if backlog > 0 and cur_prefill < n_prefill:
                self._last_action = now
                target = cur_prefill + 1
                return target, self.proportional(target, n_prefill,
                                                 n_decode)
            return cur_prefill, cur_decode
        if attainment < self.p["target"] and cur_prefill < n_prefill:
            self._last_action = now
            target = cur_prefill + 1
        elif attainment >= min(1.0, self.p["target"]
                               + 0.5 * (1.0 - self.p["target"])) \
                and backlog == 0 and cur_prefill > 1:
            self._last_action = now
            target = cur_prefill - 1
        else:
            return cur_prefill, cur_decode
        return target, self.proportional(target, n_prefill, n_decode)


def _parse_plan(plan: str) -> list[tuple[float, float]]:
    """Parse a ``t:frac|t:frac`` time-of-day plan into sorted points."""
    points = []
    for piece in plan.split("|"):
        t_text, sep, frac_text = piece.partition(":")
        if not sep:
            raise ValueError(
                f"bad schedule plan point {piece!r}; the grammar is "
                "t:fraction|t:fraction"
            )
        try:
            t, frac = float(t_text), float(frac_text)
        except ValueError:
            raise ValueError(
                f"bad schedule plan point {piece!r}; times and "
                "fractions must be numbers"
            ) from None
        if t < 0:
            raise ValueError(
                f"schedule plan times must be >= 0, got {t}")
        if not 0 < frac <= 1:
            raise ValueError(
                f"schedule plan fractions must be in (0, 1], got {frac}")
        points.append((t, frac))
    if points[0][0] != 0:
        raise ValueError(
            f"schedule plan must start at time 0, got {points[0][0]}")
    for (a, _), (b, _) in zip(points, points[1:]):
        if b <= a:
            raise ValueError(
                "schedule plan times must be strictly increasing, got "
                f"{a} then {b}")
    return points


@register_autoscaler
class ScheduleAutoscaler(AutoscalerPolicy):
    name = "schedule"
    description = ("time-of-day plan: pipe-separated t:fraction points "
                   "set the powered fraction of each fleet, optionally "
                   "wrapping every period_s seconds")
    params = {
        "plan": ElasticParam(
            "0:1.0", "pipe-separated t:fraction points, e.g. "
                     "0:1.0|450:0.5 (fraction of provisioned replicas)"),
        "period_s": ElasticParam(
            0.0, "wrap plan time modulo this (0 = no wrap)"),
        "interval_s": ElasticParam(10.0, "evaluation period, seconds"),
        "cold_start_s": ElasticParam(
            30.0, "boot latency for a powered-off replica, seconds"),
    }

    @classmethod
    def validate(cls, *, plan, period_s, interval_s, cold_start_s):
        points = _parse_plan(plan)
        if period_s < 0:
            raise ValueError(
                f"schedule period_s must be >= 0, got {period_s}")
        if period_s and points[-1][0] >= period_s:
            raise ValueError(
                f"schedule plan times must fall inside period_s="
                f"{period_s}, got {points[-1][0]}")
        if interval_s <= 0:
            raise ValueError(
                f"schedule interval_s must be > 0, got {interval_s}")
        if cold_start_s < 0:
            raise ValueError(
                f"schedule cold_start_s must be >= 0, got {cold_start_s}")

    def __init__(self, **params):
        super().__init__(**params)
        self._points = _parse_plan(self.p["plan"])

    def _fraction(self, now: float) -> float:
        t = now % self.p["period_s"] if self.p["period_s"] > 0 else now
        frac = self._points[0][1]
        for point_t, point_frac in self._points:
            if point_t <= t:
                frac = point_frac
            else:
                break
        return frac

    def initial(self, n_prefill, n_decode):
        frac = self._fraction(0.0)
        return (max(1, round(frac * n_prefill)),
                max(1, round(frac * n_decode)))

    def desired(self, now, sim, n_prefill, n_decode, cur_prefill,
                cur_decode):
        frac = self._fraction(now)
        return (max(1, round(frac * n_prefill)),
                max(1, round(frac * n_decode)))


# -- built-in admission policies ----------------------------------------------

@register_admission
class AcceptAllAdmission(AdmissionPolicy):
    name = "accept_all"
    description = "every arrival is accepted unchanged (the default)"


@register_admission
class ShedAdmission(AdmissionPolicy):
    name = "shed"
    description = ("queue-cap load shedding: reject arrivals of "
                   "slo_tier >= tier while the prefill backlog is at "
                   "queue_max or above")
    params = {
        "queue_max": ElasticParam(
            64.0, "shed while the prefill backlog (queued + in-service "
                  "+ parked requests) is at or above this"),
        "tier": ElasticParam(
            0.0, "only requests with slo_tier >= tier are shed "
                 "(0 sheds everything)"),
    }

    @classmethod
    def validate(cls, *, queue_max, tier):
        if queue_max < 1:
            raise ValueError(f"shed queue_max must be >= 1, got {queue_max}")
        if tier != int(tier) or tier < 0:
            raise ValueError(
                f"shed tier must be a non-negative integer, got {tier}")

    def admit(self, now, req, sim):
        if req.trace.slo_tier >= int(self.p["tier"]) \
                and sim.prefill_backlog() >= self.p["queue_max"]:
            return "shed"
        return None


@register_admission
class DegradeAdmission(AdmissionPolicy):
    name = "degrade"
    description = ("tier-aware degrade: requests of slo_tier >= tier "
                   "run a cheaper method instead of being served at "
                   "full quality (queue_min gates on backlog)")
    may_degrade = True
    params = {
        "tier": ElasticParam(
            1.0, "degrade requests with slo_tier >= this"),
        "method": ElasticParam(
            "hack_int4", "registered method degraded requests run"),
        "queue_min": ElasticParam(
            0.0, "only degrade while the prefill backlog is at least "
                 "this (0 = always)"),
    }

    @classmethod
    def validate(cls, *, tier, method, queue_min):
        if tier != int(tier) or tier < 0:
            raise ValueError(
                f"degrade tier must be a non-negative integer, got {tier}")
        if queue_min < 0:
            raise ValueError(
                f"degrade queue_min must be >= 0, got {queue_min}")
        from ..methods.spec import resolve_method
        resolve_method(method)

    def bind(self, sim):
        from ..methods.spec import resolve_method
        self._method = resolve_method(self.p["method"])

    def admit(self, now, req, sim):
        if req.trace.slo_tier >= int(self.p["tier"]) \
                and sim.prefill_backlog() >= self.p["queue_min"]:
            return self._method
        return None
