"""Pluggable scheduling & placement policies for the serving simulator.

The paper's §7.1 serving policy hard-wires two decisions: which prefill
replica a request queues on (SplitWise's shortest-token-queue) and which
decode replica receives its KV (shortest queue with room, spilling to a
DéjàVu CPU swap when none has).  Whether compression pays off at all
hinges on how load is spread once the baseline saturates — FlowKV
(arXiv:2504.03775) and KVServe-style service-aware placement change the
disaggregated-serving picture materially — so this module makes both
decisions first-class, open registries mirroring
:mod:`repro.methods.spec` and :mod:`repro.workload.arrivals`:

* :class:`PrefillDispatchPolicy` families pick a prefill replica for an
  arriving request (``splitwise``, ``round_robin``, ``random``,
  ``least_work``, ``nic_aware``);
* :class:`DecodePlacementPolicy` families pick a decode replica with
  room for the request's KV (``shortest_queue``, ``best_fit``,
  ``least_loaded``) or refuse outright (``no_swap``, which rejects
  instead of swapping and surfaces rejected-request counts);
* a frozen, JSON-friendly :class:`SchedulerSpec` pairs one of each,
  with a compact string grammar for CLIs, scenarios and sweep axes::

      splitwise                      # dispatch only, default placement
      best_fit                       # placement only, default dispatch
      round_robin+best_fit           # both
      random?seed=7+no_swap          # parameters attach with ?k=v,…

  Policy names are unique across both registries, so a single name
  resolves unambiguously to its role.

The default pair (``splitwise+shortest_queue``) reproduces the paper's
policy byte-for-byte — the fig9/fig10 golden renders are pinned
identical with and without an explicit scheduler.

Policies are *instantiated per simulation* (they may hold mutable state
— a round-robin cursor, a seeded RNG) and may override :meth:`bind` to
precompute per-replica information from the simulator (e.g.
``least_work``'s per-fleet prefill speeds on heterogeneous fleets).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..spec import Param, Policy, Reference, Registry, Spec, names_all, \
    parse_clause, share_namespace, split_plus

__all__ = [
    "PolicyParam",
    "SchedulingPolicy",
    "PrefillDispatchPolicy",
    "DecodePlacementPolicy",
    "PolicySpec",
    "SchedulerSpec",
    "register_policy",
    "dispatch_policies",
    "placement_policies",
    "DEFAULT_DISPATCH",
    "DEFAULT_PLACEMENT",
]

#: The paper's §7.1 policy pair (the engine default).
DEFAULT_DISPATCH = "splitwise"
DEFAULT_PLACEMENT = "shortest_queue"

#: A policy parameter: the shared :class:`~repro.spec.Param`.
PolicyParam = Param


class SchedulingPolicy(Policy):
    """Shared base of both policy roles (see subclasses).

    Subclasses set :attr:`name`, :attr:`description` and :attr:`params`
    and are registered with :func:`register_policy`.  Instances receive
    their resolved parameters as the ``p`` mapping and may override
    :meth:`bind` to precompute per-replica state from the simulator
    (its replica lists are built but no event has run).
    """


class PrefillDispatchPolicy(SchedulingPolicy):
    """Picks the prefill replica an arriving request queues on.

    ``replicas`` is the simulator's live prefill-replica list; each
    exposes ``queued_tokens`` (tokens queued or in service),
    ``nic_free_at`` (when its NIC finishes its current transfer
    backlog), ``assigned`` (requests dispatched so far), ``gpu`` and
    ``res`` (the replica's :class:`~repro.cluster.parallelism
    .ReplicaResources` — heterogeneous fleets make these differ).
    """

    role = "dispatch"

    def choose(self, now: float, req, replicas) -> int:
        """Index of the chosen replica (must be in range)."""
        raise NotImplementedError


class DecodePlacementPolicy(SchedulingPolicy):
    """Picks the decode replica that receives a finished request's KV.

    ``replicas`` is the simulator's live decode-replica list; each
    exposes ``free_bytes()``, ``capacity_bytes``, ``used_bytes``,
    ``queued_tokens``, ``assigned`` and ``active`` (the running batch).
    Return ``None`` when no replica can take the request: the engine
    then swaps the KV to prefill CPU memory (§5.1 step 6) when
    :attr:`swap_on_full` is true, or *rejects* the request outright
    when false (surfaced as ``SimulationResult.n_rejected``).
    """

    role = "placement"
    #: Whether a full cluster spills to the DéjàVu CPU swap (the §5.1
    #: behaviour) or rejects the request.
    swap_on_full = True

    def choose(self, now: float, req, replicas, reserve: float) -> int | None:
        """Index of a replica with ``free_bytes() >= reserve``, or None."""
        raise NotImplementedError


_DISPATCH = Registry("dispatch policy", PrefillDispatchPolicy,
                     role="dispatch", key="dispatch_policies")
_PLACEMENT = Registry("placement policy", DecodePlacementPolicy,
                      role="placement", key="placement_policies")
_ROLES = {"dispatch": _DISPATCH, "placement": _PLACEMENT}
# A bare name in the pair grammar must resolve to exactly one role.
share_namespace(_DISPATCH, _PLACEMENT)

dispatch_policies = _DISPATCH.catalog
placement_policies = _PLACEMENT.catalog


def register_policy(cls=None, *, replace: bool = False):
    """Class decorator registering a policy family; the role (dispatch
    or placement) is inferred from the base class."""

    def decorator(obj):
        for registry in _ROLES.values():
            if isinstance(obj, type) and issubclass(obj, registry.base):
                return registry.register(obj, replace=replace)
        raise TypeError(
            f"{getattr(obj, '__name__', obj)!r} must subclass "
            "PrefillDispatchPolicy or DecodePlacementPolicy"
        )

    return decorator(cls) if cls is not None else decorator


# -- the specs ----------------------------------------------------------------

@dataclass(frozen=True)
class PolicySpec(Spec):
    """One declarative policy reference: family + parameters.

    ``role`` is ``"dispatch"`` or ``"placement"`` and selects the
    registry the family is validated against.
    """

    role: str
    kind: str
    params: tuple[tuple[str, object], ...] = ()

    @property
    def registry(self) -> Registry:
        if self.role not in _ROLES:
            raise ValueError(
                f"policy role must be 'dispatch' or 'placement', got "
                f"{self.role!r}"
            )
        return _ROLES[self.role]

    @classmethod
    def of(cls, role: str, kind: str, **params) -> "PolicySpec":
        return cls(role, kind, tuple(params.items()))


@dataclass(frozen=True)
class SchedulerSpec(Reference):
    """A dispatch/placement policy pair; ``None`` keeps the §7.1
    default for that role (and canonicalizes/serializes without it,
    so what you write is what you get)."""

    dispatch: PolicySpec | None = None
    placement: PolicySpec | None = None

    registries = (_DISPATCH, _PLACEMENT)

    def __post_init__(self) -> None:
        if self.dispatch is not None and self.dispatch.role != "dispatch":
            raise ValueError(
                f"dispatch slot holds a {self.dispatch.role} policy "
                f"({self.dispatch.kind!r})"
            )
        if self.placement is not None and self.placement.role != "placement":
            raise ValueError(
                f"placement slot holds a {self.placement.role} policy "
                f"({self.placement.kind!r})"
            )

    def build_dispatch(self) -> PrefillDispatchPolicy:
        spec = self.dispatch or PolicySpec("dispatch", DEFAULT_DISPATCH)
        return spec.build()

    def build_placement(self) -> DecodePlacementPolicy:
        spec = self.placement or PolicySpec("placement", DEFAULT_PLACEMENT)
        return spec.build()

    def canonical(self) -> str:
        """Compact string form: given parts joined by ``+`` (dispatch
        first); the fully-defaulted spec canonicalizes to the explicit
        default pair."""
        parts = [s.canonical() for s in (self.dispatch, self.placement)
                 if s is not None]
        if not parts:
            return f"{DEFAULT_DISPATCH}+{DEFAULT_PLACEMENT}"
        return "+".join(parts)

    @classmethod
    def parse(cls, text: str) -> "SchedulerSpec":
        """Parse ``policy[+policy]`` (each ``family[?key=value,…]``).
        Each part's role is inferred from its family name; at most one
        part per role."""
        slots: dict[str, PolicySpec] = {}
        for part in split_plus(text, "scheduler",
                               "dispatch[?k=v,…][+placement[?k=v,…]] "
                               "(either part may stand alone)"):
            registry, kind, pairs = parse_clause(
                part, cls.registries, "scheduling policy", "policy")
            if registry.role in slots:
                raise ValueError(
                    f"scheduler {text!r} names two {registry.role} "
                    f"policies ({slots[registry.role].kind!r} and {kind!r})"
                )
            slots[registry.role] = PolicySpec(registry.role, kind, pairs)
        return cls(**slots)

    @classmethod
    def known(cls, reference: str) -> bool:
        """True when every ``+``-part of a string scheduler reference
        names a registered policy (parameters may still be invalid)."""
        return names_all(reference, cls.registries)


# -- built-in dispatch policies -----------------------------------------------

@register_policy
class SplitwiseDispatch(PrefillDispatchPolicy):
    name = "splitwise"
    description = ("shortest token queue, ties by NIC backlog then "
                   "assignment count (the paper's §7.1 policy)")

    def choose(self, now, req, replicas):
        def load(i: int):
            replica = replicas[i]
            return (replica.queued_tokens,
                    max(0.0, replica.nic_free_at - now),
                    replica.assigned)

        return min(range(len(replicas)), key=load)


@register_policy
class RoundRobinDispatch(PrefillDispatchPolicy):
    name = "round_robin"
    description = "cycle through prefill replicas in arrival order"

    def __init__(self, **params):
        super().__init__(**params)
        self._next = 0

    def choose(self, now, req, replicas):
        idx = self._next % len(replicas)
        self._next = idx + 1
        return idx


@register_policy
class RandomDispatch(PrefillDispatchPolicy):
    name = "random"
    description = "uniform random replica from a seeded stream"
    params = {"seed": PolicyParam(0.0, "RNG seed (deterministic per run)")}

    def __init__(self, **params):
        super().__init__(**params)
        self._rng = np.random.default_rng(int(self.p["seed"]))

    @classmethod
    def validate(cls, *, seed):
        if seed != int(seed) or seed < 0:
            raise ValueError(
                f"random seed must be a non-negative integer, got {seed}"
            )

    def choose(self, now, req, replicas):
        return int(self._rng.integers(len(replicas)))


@register_policy
class LeastWorkDispatch(PrefillDispatchPolicy):
    name = "least_work"
    description = ("least outstanding work in *seconds* — queued tokens "
                   "over the replica's prefill rate, so a fast fleet "
                   "absorbs more load than a slow one")

    def bind(self, sim):
        # Per-replica prefill throughput (tokens/s) at the batching
        # budget, computed once per distinct GPU type: on heterogeneous
        # fleets this is the asymmetry the policy exploits.
        from ..perfmodel.prefill import prefill_time
        from .engine import PREFILL_TOKEN_BUDGET

        speed: dict[str, float] = {}
        self._speed = []
        for replica in sim._prefill:
            if replica.gpu not in speed:
                t = prefill_time(sim.spec, replica.res, PREFILL_TOKEN_BUDGET,
                                 sim.method, sim.calib)
                speed[replica.gpu] = PREFILL_TOKEN_BUDGET / (
                    t.linear_s + t.attention_s + t.quantize_s)
            self._speed.append(speed[replica.gpu])

    def choose(self, now, req, replicas):
        def work(i: int):
            replica = replicas[i]
            return (replica.queued_tokens / self._speed[i],
                    max(0.0, replica.nic_free_at - now),
                    replica.assigned)

        return min(range(len(replicas)), key=work)


@register_policy
class NicAwareDispatch(PrefillDispatchPolicy):
    name = "nic_aware"
    description = ("shortest NIC transfer backlog first, then shortest "
                   "token queue (KV-transfer-aware, FlowKV-style)")

    def choose(self, now, req, replicas):
        def backlog(i: int):
            replica = replicas[i]
            return (max(0.0, replica.nic_free_at - now),
                    replica.queued_tokens,
                    replica.assigned)

        return min(range(len(replicas)), key=backlog)


# -- built-in placement policies ----------------------------------------------

def _with_room(replicas, reserve):
    return [i for i, d in enumerate(replicas) if d.free_bytes() >= reserve]


@register_policy
class ShortestQueuePlacement(DecodePlacementPolicy):
    name = "shortest_queue"
    description = ("shortest token queue with room, DéjàVu CPU swap when "
                   "full (the paper's §7.1 policy)")

    def choose(self, now, req, replicas, reserve):
        candidates = _with_room(replicas, reserve)
        if not candidates:
            return None
        return min(candidates, key=lambda i: (replicas[i].queued_tokens,
                                              replicas[i].assigned))


@register_policy
class BestFitPlacement(DecodePlacementPolicy):
    name = "best_fit"
    description = ("tightest memory fit with room (leaves the largest "
                   "holes for future long requests)")

    def choose(self, now, req, replicas, reserve):
        candidates = _with_room(replicas, reserve)
        if not candidates:
            return None
        return min(candidates, key=lambda i: (replicas[i].free_bytes(),
                                              replicas[i].queued_tokens,
                                              replicas[i].assigned))


@register_policy
class LeastLoadedPlacement(DecodePlacementPolicy):
    name = "least_loaded"
    description = ("lowest memory utilisation with room (spreads KV "
                   "evenly across decode replicas)")

    def choose(self, now, req, replicas, reserve):
        candidates = _with_room(replicas, reserve)
        if not candidates:
            return None
        return min(candidates, key=lambda i: (
            replicas[i].used_bytes / replicas[i].capacity_bytes,
            replicas[i].queued_tokens,
            replicas[i].assigned))


@register_policy
class NoSwapPlacement(ShortestQueuePlacement):
    name = "no_swap"
    description = ("shortest queue with room, but *reject* when full "
                   "instead of swapping (admission control; rejected "
                   "counts surface in results)")
    swap_on_full = False
