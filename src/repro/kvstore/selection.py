"""Service-aware compression selection: per-request MethodSpec choice.

KVServe's observation (PAPERS.md) is that the compression method is a
*runtime* decision, not a deployment constant: latency-tolerant SLO
tiers can absorb stronger compression, and a congested KV path should
shed bytes.  This module hosts that decision as an open registry of
:class:`CompressionSelectionPolicy` families, specced with the same
``family?k=v`` grammar as everything else::

    static                                    # the scenario's method
    slo_tier?tier1=hack,tier2=hack_int4       # SLO class -> method
    congestion?hi=0.75,lo=0.5,strong=hack_int4

A policy's :meth:`choose` returns the
:class:`~repro.methods.base.Method` for one request at admission time;
the engine then routes that request's quantize cost, wire bytes,
decode-memory reservation and KV-store byte accounting through it.
Method-valued parameters are word-safe method references (legacy names
like ``hack_int4`` or parameterless family names — the spec grammar's
metacharacters ``,=?+`` cannot nest), validated at spec-construction
time.

The decode batch cost model stays the *scenario's* method: the engine
simulates one decode kernel per cluster, a deliberate approximation —
selection governs the bytes-on-the-path side (quantize, wire, store,
memory), which is where HACK's bottleneck lives.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..methods.base import Method
from ..methods.spec import resolve_method
from ..spec import Param, Policy, Registry, Spec, split_list

__all__ = [
    "SelectionParam",
    "CompressionSelectionPolicy",
    "SelectionSpec",
    "register_selection",
    "get_selection_policy",
    "selection_policies",
    "has_selection_policy",
    "selection_spec",
    "parse_selection",
    "canonical_selection",
    "split_selection_list",
]

#: A policy parameter: the shared :class:`~repro.spec.Param` (a float,
#: or a word-safe string — typically a method reference).
SelectionParam = Param


class CompressionSelectionPolicy(Policy):
    """Picks the compression :class:`Method` for one arriving request.

    Subclasses set :attr:`name`, :attr:`description`, :attr:`params`
    and implement :meth:`choose`; they may hold per-run state (the
    congestion policy's hysteresis latch) and override :meth:`bind` to
    precompute from the simulator.
    """

    def choose(self, now: float, req, sim) -> Method:
        """The method for ``req`` (``req.trace`` carries ``slo_tier``;
        ``sim`` exposes ``method``, ``kvstore``, ``_prefill``…)."""
        raise NotImplementedError


_SELECTIONS = Registry("selection policy", CompressionSelectionPolicy,
                       role="selection", key="selection_policies")
register_selection = _SELECTIONS.register
get_selection_policy = _SELECTIONS.get
selection_policies = _SELECTIONS.catalog
has_selection_policy = _SELECTIONS.has


@dataclass(frozen=True)
class SelectionSpec(Spec):
    """A declarative selection-policy reference: family + parameters."""

    kind: str
    params: tuple[tuple[str, object], ...] = ()

    registry = _SELECTIONS


selection_spec = SelectionSpec.from_reference
parse_selection = SelectionSpec.parse
canonical_selection = SelectionSpec.canonical_of
split_selection_list = split_list


def _check_method_ref(kind: str, name: str, value: str) -> None:
    try:
        resolve_method(value)
    except ValueError as exc:
        raise ValueError(
            f"parameter {name!r} of selection policy {kind!r} must name "
            f"a resolvable method: {exc}"
        ) from None


# -- built-in families --------------------------------------------------------

@register_selection
class StaticSelection(CompressionSelectionPolicy):
    name = "static"
    description = "always the scenario's configured method (the default)"

    def choose(self, now, req, sim):
        return sim.method


@register_selection
class SLOTierSelection(CompressionSelectionPolicy):
    name = "slo_tier"
    description = ("map the request's SLO class to a method (KVServe-"
                   "style: looser tiers absorb stronger compression)")
    params = {
        "tier0": SelectionParam(
            "baseline", "method for SLO class 0 (strictest)"),
        "tier1": SelectionParam("hack", "method for SLO class 1"),
        "tier2": SelectionParam(
            "hack_int4", "method for SLO class >= 2 (loosest)"),
    }

    @classmethod
    def validate(cls, *, tier0, tier1, tier2):
        for name, value in (("tier0", tier0), ("tier1", tier1),
                            ("tier2", tier2)):
            _check_method_ref(cls.name, name, value)

    def __init__(self, **params):
        super().__init__(**params)
        self._methods = [resolve_method(self.p[k])
                         for k in ("tier0", "tier1", "tier2")]

    def choose(self, now, req, sim):
        tier = min(max(req.trace.slo_tier, 0), len(self._methods) - 1)
        return self._methods[tier]


@register_selection
class CongestionSelection(CompressionSelectionPolicy):
    name = "congestion"
    description = ("switch to the strong method while pooled-store "
                   "occupancy or NIC backlog is high (hysteresis)")
    params = {
        "hi": SelectionParam(0.75, "signal level that arms strong mode"),
        "lo": SelectionParam(0.5, "signal level that disarms it"),
        "strong": SelectionParam(
            "hack_int4", "method used while congested"),
        "nic_s": SelectionParam(
            1.0, "NIC backlog (seconds) that saturates the signal"),
    }

    @classmethod
    def validate(cls, *, hi, lo, strong, nic_s):
        if not 0 < hi <= 1:
            raise ValueError(f"congestion hi must be in (0, 1], got {hi}")
        if not 0 <= lo < hi:
            raise ValueError(
                f"congestion lo must be in [0, hi), got lo={lo} hi={hi}"
            )
        if nic_s <= 0:
            raise ValueError(
                f"congestion nic_s must be positive, got {nic_s}"
            )
        _check_method_ref(cls.name, "strong", strong)

    def __init__(self, **params):
        super().__init__(**params)
        self._strong = resolve_method(self.p["strong"])
        self._congested = False

    def signal(self, now: float, sim) -> float:
        """max(pooled-store occupancy, normalized worst NIC backlog,
        fault-driven capacity loss)."""
        pool = sim.kvstore.pool_occupancy() if sim.kvstore else 0.0
        backlog = max((r.nic_free_at - now for r in sim._prefill),
                      default=0.0)
        signal = max(pool, min(1.0, max(0.0, backlog) / self.p["nic_s"]))
        # Graceful degradation under fault injection: the fraction of
        # decode replicas down counts as congestion, so a crash trips
        # selection to the cheaper strong method exactly like store/NIC
        # pressure does.  0.0 on unfaulted runs (and absent on foreign
        # simulator objects), so historical behavior is unchanged.
        capacity_loss = getattr(sim, "fault_capacity_signal", None)
        if capacity_loss is not None:
            signal = max(signal, capacity_loss())
        return signal

    def choose(self, now, req, sim):
        signal = self.signal(now, sim)
        if self._congested:
            if signal <= self.p["lo"]:
                self._congested = False
        elif signal >= self.p["hi"]:
            self._congested = True
        return self._strong if self._congested else sim.method
