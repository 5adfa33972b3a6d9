"""Recovery policies: what happens to a request a fault interrupted.

When a fault (see :mod:`repro.sim.faults`) kills a request's replica,
flaps its KV transfer or otherwise invalidates in-flight work, the
engine asks the run's :class:`RecoveryPolicy` what to do with the
request.  Policies are an open registry with the usual ``family?k=v``
grammar::

    retry?max=3,base_s=1.0,cap_s=30.0   # exponential backoff + jitter
    migrate?max=5                       # immediate re-dispatch
    none                                # fail the request outright

A policy's :meth:`delay` returns the seconds to wait before the
request re-enters the serving path (``0.0`` = immediately, through the
run's normal scheduling policies — that *is* migration, since the
crashed replica is excluded while down), or ``None`` to give up: the
request sheds as terminal state ``failed`` (admission rejection under
exhausted backoff budgets).  All jitter draws come from the engine's
fault generator, in deterministic event order, so parallel sweeps stay
bit-identical to serial.

Graceful degradation under capacity loss rides on the PR-6
compression-selection layer rather than on these policies: the
``congestion`` selection family folds the simulator's
``fault_capacity_signal()`` (fraction of decode replicas down) into
its congestion signal, so a crash trips selection to the cheaper
strong method exactly like store/NIC pressure does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..spec import Param, Policy, Registry, Spec, split_list

__all__ = [
    "RecoveryParam",
    "RecoveryPolicy",
    "RecoverySpec",
    "register_recovery",
    "get_recovery_policy",
    "recovery_policies",
    "has_recovery_policy",
    "recovery_spec",
    "parse_recovery",
    "canonical_recovery",
    "split_recovery_list",
    "DEFAULT_RECOVERY",
]

#: The policy a faulted run gets when none is configured explicitly.
DEFAULT_RECOVERY = "retry"

#: A policy parameter: the shared :class:`~repro.spec.Param`.
RecoveryParam = Param


class RecoveryPolicy(Policy):
    """Decides the fate of one fault-interrupted request attempt.

    Subclasses set :attr:`name`, :attr:`description`, :attr:`params`
    and implement :meth:`delay`; they may hold per-run state and
    override :meth:`bind` to precompute from the simulator.
    """

    def delay(self, req, attempt: int,
              rng: np.random.Generator) -> float | None:
        """Seconds before attempt ``attempt`` (1 = first recovery)
        re-enters the serving path, or ``None`` to fail the request."""
        raise NotImplementedError


_RECOVERIES = Registry("recovery policy", RecoveryPolicy, role="recovery",
                       key="recovery_policies")
register_recovery = _RECOVERIES.register
get_recovery_policy = _RECOVERIES.get
recovery_policies = _RECOVERIES.catalog
has_recovery_policy = _RECOVERIES.has


@dataclass(frozen=True)
class RecoverySpec(Spec):
    """A declarative recovery-policy reference: family + parameters."""

    kind: str
    params: tuple[tuple[str, object], ...] = ()

    registry = _RECOVERIES


recovery_spec = RecoverySpec.from_reference
parse_recovery = RecoverySpec.parse
canonical_recovery = RecoverySpec.canonical_of
split_recovery_list = split_list


# -- built-in families --------------------------------------------------------

@register_recovery
class NoRecovery(RecoveryPolicy):
    name = "none"
    description = "fail the request on its first fault (no retries)"

    def delay(self, req, attempt, rng):
        return None


@register_recovery
class RetryRecovery(RecoveryPolicy):
    name = "retry"
    description = ("exponential backoff with seeded jitter; the request "
                   "fails once max attempts are exhausted")
    params = {
        "max": RecoveryParam(3.0, "retry budget (attempts before failing)"),
        "base_s": RecoveryParam(1.0, "first-retry backoff, seconds"),
        "cap_s": RecoveryParam(30.0, "backoff ceiling, seconds"),
    }

    @classmethod
    def validate(cls, *, max, base_s, cap_s):
        if max != int(max) or max < 1:
            raise ValueError(
                f"retry max must be a positive integer, got {max}"
            )
        if base_s <= 0:
            raise ValueError(f"retry base_s must be > 0, got {base_s}")
        if cap_s < base_s:
            raise ValueError(
                f"retry cap_s must be >= base_s, got cap_s={cap_s} "
                f"base_s={base_s}"
            )

    def delay(self, req, attempt, rng):
        if attempt > int(self.p["max"]):
            return None
        backoff = min(self.p["cap_s"],
                      self.p["base_s"] * 2.0 ** (attempt - 1))
        # Decorrelating jitter in [0.5, 1.5) x backoff, from the run's
        # fault generator (deterministic in event order).
        return backoff * (0.5 + float(rng.random()))


@register_recovery
class MigrateRecovery(RecoveryPolicy):
    name = "migrate"
    description = ("immediate re-dispatch through the run's scheduling "
                   "policies (the crashed replica is excluded while "
                   "down); fails after max attempts")
    params = {
        "max": RecoveryParam(5.0, "migration budget (attempts before "
                                  "failing)"),
    }

    @classmethod
    def validate(cls, *, max):
        if max != int(max) or max < 1:
            raise ValueError(
                f"migrate max must be a positive integer, got {max}"
            )

    def delay(self, req, attempt, rng):
        if attempt > int(self.p["max"]):
            return None
        return 0.0
