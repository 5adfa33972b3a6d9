"""Fault injection for the serving simulator.

Every modeled component — prefill replicas, decode replicas, the NIC
transfer path, the tiered KV store — is perfectly reliable unless this
module says otherwise.  Fault *families* are an open registry mirroring
:mod:`repro.sim.scheduling` / :mod:`repro.kvstore.selection`, specced
with the same ``family?k=v`` grammar and composed with ``+``::

    replica_crash?mttf=600,mttr=30,role=decode
    nic_degrade?factor=0.25,start=60,duration=120
    transfer_flap?p_fail=0.02
    kvstore_outage?tier=dram,start=120,duration=120
    replica_crash?role=prefill+transfer_flap?p_fail=0.01

A :class:`FaultPlan` (the ``+``-composition; repeats of one family are
allowed, unlike scheduler pairs) deterministically **pre-materializes**
into a fault-event timeline before the first simulation event runs: all
stochastic draws come from one seeded ``numpy`` Generator whose seed
derives from the plan's canonical string, so a forked sweep worker
re-derives the exact event times a serial run sees — parallel results
stay bit-identical to serial.  Runtime draws (per-transfer flaps, retry
jitter) consume *subsequent* values from the same generator in
deterministic event order.

Timeline events are ``(time_s, kind, payload)`` tuples the engine
threads through its heap:

* ``("replica_down", (role, index))`` / ``("replica_up", (role, index))``
  — a crash/repair on a ``"prefill"`` or ``"decode"`` replica;
* ``("nic_on", factor)`` / ``("nic_off", factor)`` — a bandwidth
  brownout window opens/closes (overlapping windows multiply);
* ``("kv_dark", (tier, dark))`` — a KV-store tier goes dark / recovers
  (reads of entries it owns miss and fall through; writes land in the
  top surviving tier).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from ..spec import Param, Policy, Reference, Registry, Spec, names_all, \
    parse_clause, split_plus

__all__ = [
    "FaultParam",
    "FaultFamily",
    "FaultSpec",
    "FaultPlan",
    "register_fault",
    "fault_families",
]

#: Replica roles a crash family may target.
_ROLES = ("prefill", "decode")

#: A fault parameter: the shared :class:`~repro.spec.Param` (a float, or
#: a word-safe string — e.g. a replica role or tier name).
FaultParam = Param


class FaultFamily(Policy):
    """One kind of injected fault.

    Subclasses set :attr:`name`, :attr:`description`, :attr:`params`
    and are registered with :func:`register_fault`.  Instances receive
    their resolved parameters as the ``p`` mapping and contribute to
    the run through two hooks:

    * :meth:`events` — the pre-materialized timeline contribution
      (crash/repair instants, brownout windows, outage windows).  All
      randomness must come from the passed generator, drawn in a fixed
      order, so the timeline is a pure function of (plan, trace shape).
    * :attr:`transfer_fail_prob` — a per-transfer failure probability
      the engine evaluates at runtime (``transfer_flap``'s hook;
      families without one return 0).
    """

    def events(self, rng: np.random.Generator, horizon_s: float,
               n_prefill: int, n_decode: int) -> list:
        """Timeline contribution: ``(time_s, kind, payload)`` tuples.

        ``horizon_s`` bounds crash sampling (no *new* fault starts
        after it; repairs may land beyond it so nothing stays down
        forever).  Replica counts let per-replica families clamp their
        targets to the fleet.
        """
        return []

    def transfer_fail_prob(self) -> float:
        """Per-transfer failure probability this family contributes."""
        return 0.0


_FAULTS = Registry("fault family", FaultFamily, role="fault",
                   key="fault_families")
register_fault = _FAULTS.register
fault_families = _FAULTS.catalog


# -- the specs ----------------------------------------------------------------

@dataclass(frozen=True)
class FaultSpec(Spec):
    """One declarative fault reference: family + parameters."""

    kind: str
    params: tuple[tuple[str, object], ...] = ()

    registry = _FAULTS


@dataclass(frozen=True)
class FaultPlan(Reference):
    """A ``+``-composition of fault specs (order-preserving; one family
    may appear several times, e.g. two brownout windows)."""

    faults: tuple[FaultSpec, ...] = ()

    registries = (_FAULTS,)

    def __post_init__(self) -> None:
        if not self.faults:
            raise ValueError("a fault plan needs at least one fault")
        if not all(isinstance(f, FaultSpec) for f in self.faults):
            raise TypeError("FaultPlan.faults must hold FaultSpec items")

    @classmethod
    def of(cls, *specs) -> "FaultPlan":
        return cls(tuple(cls.from_reference(s).faults[0] if isinstance(s, str)
                         else s for s in specs))

    def canonical(self) -> str:
        """Compact string form: specs joined by ``+``."""
        return "+".join(spec.canonical() for spec in self.faults)

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse ``fault[+fault]`` (each ``family[?key=value,…]``)."""
        specs = []
        for part in split_plus(text, "fault plan",
                               "family[?k=v,…][+family[?k=v,…]…]"):
            _, kind, pairs = parse_clause(part, cls.registries,
                                          "fault family", "fault")
            specs.append(FaultSpec(kind, pairs))
        return cls(tuple(specs))

    @classmethod
    def from_reference(cls, reference) -> "FaultPlan":
        """The plan behind any fault reference: a plan, a single spec,
        or a grammar string."""
        if isinstance(reference, FaultSpec):
            return cls((reference,))
        return super().from_reference(reference)

    @classmethod
    def known(cls, reference: str) -> bool:
        """True when every ``+``-part of a string fault reference names
        a registered family (parameters may still be invalid)."""
        return names_all(reference, cls.registries)

    def rng_seed(self) -> int:
        """Deterministic seed derived from the canonical plan string —
        stable across processes, so a forked sweep worker re-derives
        the serial run's exact fault timeline."""
        digest = hashlib.md5(self.canonical().encode()).hexdigest()
        return int(digest[:8], 16)

    def build(self) -> list:
        """Fresh family instances, in plan order."""
        return [spec.build() for spec in self.faults]

    def timeline(self, rng: np.random.Generator, horizon_s: float,
                 n_prefill: int, n_decode: int) -> list:
        """The materialized fault timeline, stably sorted by time.

        Families draw from ``rng`` in plan order, so the timeline is a
        pure function of (plan canonical string, fleet shape, horizon).
        """
        events: list = []
        for family in self.build():
            events.extend(family.events(rng, horizon_s, n_prefill,
                                        n_decode))
        events.sort(key=lambda ev: ev[0])
        return events

    def transfer_fail_prob(self) -> float:
        """Combined per-transfer failure probability: independent flap
        sources compose as ``1 - prod(1 - p_i)``."""
        survive = 1.0
        for family in self.build():
            survive *= 1.0 - family.transfer_fail_prob()
        return 1.0 - survive


# -- built-in families --------------------------------------------------------

@register_fault
class ReplicaCrashFault(FaultFamily):
    name = "replica_crash"
    description = ("seeded exponential crash/repair cycles on prefill "
                   "or decode replicas (MTTF/MTTR in seconds)")
    params = {
        "mttf": FaultParam(600.0, "mean time to failure, seconds"),
        "mttr": FaultParam(30.0, "mean time to repair, seconds"),
        "role": FaultParam("decode", "replica role: prefill or decode"),
        "replicas": FaultParam(
            1.0, "how many replicas of the role crash (clamped to the "
                 "fleet, always leaving one replica unaffected when the "
                 "fleet has more than one)"),
    }

    @classmethod
    def validate(cls, *, mttf, mttr, role, replicas):
        if mttf <= 0:
            raise ValueError(f"replica_crash mttf must be > 0, got {mttf}")
        if mttr <= 0:
            raise ValueError(f"replica_crash mttr must be > 0, got {mttr}")
        if role not in _ROLES:
            raise ValueError(
                f"replica_crash role must be one of {_ROLES}, got {role!r}"
            )
        if replicas != int(replicas) or replicas < 1:
            raise ValueError(
                f"replica_crash replicas must be a positive integer, got "
                f"{replicas}"
            )

    def events(self, rng, horizon_s, n_prefill, n_decode):
        fleet = n_prefill if self.p["role"] == "prefill" else n_decode
        # Leave at least one replica unaffected on multi-replica fleets
        # so the cluster can always make progress between repairs.
        limit = fleet if fleet <= 1 else fleet - 1
        targets = min(int(self.p["replicas"]), limit)
        out = []
        for idx in range(targets):
            t = 0.0
            while True:
                t += float(rng.exponential(self.p["mttf"]))
                if t >= horizon_s:
                    break
                out.append((t, "replica_down", (self.p["role"], idx)))
                t += float(rng.exponential(self.p["mttr"]))
                # The repair always lands (possibly past the horizon):
                # nothing stays down forever.
                out.append((t, "replica_up", (self.p["role"], idx)))
        return out


@register_fault
class NicDegradeFault(FaultFamily):
    name = "nic_degrade"
    description = ("NIC bandwidth brownout: transfers starting inside "
                   "the window run at factor x bandwidth")
    params = {
        "factor": FaultParam(0.25, "bandwidth multiplier in (0, 1]"),
        "start": FaultParam(60.0, "window start, seconds"),
        "duration": FaultParam(60.0, "window length, seconds"),
    }

    @classmethod
    def validate(cls, *, factor, start, duration):
        if not 0 < factor <= 1:
            raise ValueError(
                f"nic_degrade factor must be in (0, 1], got {factor}"
            )
        if start < 0:
            raise ValueError(
                f"nic_degrade start must be >= 0, got {start}"
            )
        if duration <= 0:
            raise ValueError(
                f"nic_degrade duration must be > 0, got {duration}"
            )

    def events(self, rng, horizon_s, n_prefill, n_decode):
        start = self.p["start"]
        return [(start, "nic_on", self.p["factor"]),
                (start + self.p["duration"], "nic_off", self.p["factor"])]


@register_fault
class TransferFlapFault(FaultFamily):
    name = "transfer_flap"
    description = ("each KV transfer independently fails with "
                   "probability p_fail (drawn at transfer start)")
    params = {
        "p_fail": FaultParam(0.05, "per-transfer failure probability"),
    }

    @classmethod
    def validate(cls, *, p_fail):
        if not 0 <= p_fail <= 1:
            raise ValueError(
                f"transfer_flap p_fail must be in [0, 1], got {p_fail}"
            )

    def transfer_fail_prob(self):
        return self.p["p_fail"]


@register_fault
class KVStoreOutageFault(FaultFamily):
    name = "kvstore_outage"
    description = ("a KV-store tier goes dark for a window: its entries "
                   "miss (reads fall through), writes land in the top "
                   "surviving tier")
    params = {
        "tier": FaultParam("dram", "tier name (hbm, dram or pool)"),
        "start": FaultParam(120.0, "outage start, seconds"),
        "duration": FaultParam(120.0, "outage length, seconds"),
    }

    @classmethod
    def validate(cls, *, tier, start, duration):
        if start < 0:
            raise ValueError(
                f"kvstore_outage start must be >= 0, got {start}"
            )
        if duration <= 0:
            raise ValueError(
                f"kvstore_outage duration must be > 0, got {duration}"
            )

    def events(self, rng, horizon_s, n_prefill, n_decode):
        start = self.p["start"]
        tier = self.p["tier"]
        return [(start, "kv_dark", (tier, True)),
                (start + self.p["duration"], "kv_dark", (tier, False))]
