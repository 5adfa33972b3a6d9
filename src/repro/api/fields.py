"""The spec-valued scenario fields: one table row per field.

Every open registry reaches users through one :class:`~repro.api.Scenario`
field, one ``--<field>`` flag and one sweep axis.  :data:`SPEC_FIELDS`
maps each field to its spec type, the registries its grammar names and
its flag's help text.  The scenario's canonicalisation, the CLI's
``--<field>`` flags and sweep-axis splitting, the ``cli list`` catalog
and the spec golden test all iterate this table, so a new registry
needs one row here and nothing per-field anywhere else.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..kvstore.selection import SelectionSpec
from ..kvstore.spec import KVStoreSpec
from ..methods import MethodSpec
from ..sim.elastic import AdmissionSpec, AutoscalerSpec
from ..sim.faults import FaultPlan
from ..sim.recovery import RecoverySpec
from ..sim.scheduling import SchedulerSpec
from ..spec import Registry
from ..workload.arrivals import ArrivalSpec

__all__ = ["SpecField", "SPEC_FIELDS", "FIELDS_BY_NAME"]


@dataclass(frozen=True)
class SpecField:
    """One spec-valued scenario field."""

    #: Scenario field, CLI flag and sweep-axis name.
    name: str
    #: Stem of the field's public functions: ``parse_<stem>``,
    #: ``canonical_<stem>``, ``split_<stem>_list``.
    stem: str
    #: The spec type (``parse``, ``from_reference``, ``canonical_of``,
    #: ``known``).
    spec: type
    #: The registries the field's grammar names, in catalog order.
    registries: tuple[Registry, ...]
    #: Heading of the field's block in the ``cli list`` text output.
    heading: str
    #: Whether the sweep-axis value ``none`` leaves the field unset.
    none_unsets: bool = False
    #: Help text of the field's ``--<field>`` flag.  ``--methods`` is
    #: written out in the CLI, since only it has a default.
    help: str = ""

    def canonical(self, reference) -> str:
        """The canonical string of a reference.

        A string naming no family registered in this process stays
        verbatim (stripped): a scenario is pure description, so
        artifacts referencing a custom family from another script must
        still load, render and diff.  Only *running* them requires
        resolution, and the runner raises the "unknown …" error then.
        Everything else validates here: a malformed spec of a
        registered family is a constructor error.
        """
        if isinstance(reference, str) and not self.spec.known(reference):
            return reference.strip()
        return self.spec.canonical_of(reference)


SPEC_FIELDS: tuple[SpecField, ...] = (
    SpecField("methods", "method", MethodSpec, (MethodSpec.registry,),
              "method families (spec grammar: family?key=val,… — "
              "defaults shown)"),
    SpecField("arrival", "arrival", ArrivalSpec, (ArrivalSpec.registry,),
              "arrival processes (--arrival, same grammar — defaults "
              "shown)",
              help="arrival process: poisson (default), constant, or a "
                   "spec like mmpp?burst=4,duty=0.1,dwell=20 (see "
                   "`list` for families and parameters)"),
    SpecField("scheduler", "scheduler", SchedulerSpec,
              SchedulerSpec.registries,
              "scheduling policies (--scheduler dispatch[+placement], "
              "same grammar)",
              help="dispatch/placement policy pair: a policy name "
                   "(round_robin, best_fit, …), a pair like "
                   "nic_aware+no_swap, or with parameters random?seed=7 "
                   "(see `list`; default is the paper's "
                   "splitwise+shortest_queue)"),
    SpecField("kvstore", "kvstore", KVStoreSpec, KVStoreSpec.registries,
              "KV-store families (--kvstore family?key=val+eviction, "
              "same grammar)",
              help="tiered KV store for prefix caching: a spec like "
                   "tiered?dram_gb=8.0+lfu or a bare eviction name (lru, "
                   "lfu, ttl?seconds=120) (see `list`; default is no "
                   "store)"),
    SpecField("selection", "selection", SelectionSpec,
              (SelectionSpec.registry,),
              "selection policies (--selection, same grammar)",
              help="per-request compression-selection policy: static, "
                   "slo_tier?tier2=hack_int4, or congestion?hi=0.75,lo=0.5 "
                   "(see `list`; default keeps one method per cluster)"),
    SpecField("faults", "faults", FaultPlan, FaultPlan.registries,
              "fault families (--faults family?key=val+family…, same "
              "grammar)", none_unsets=True,
              help="fault-injection plan: a family spec like "
                   "replica_crash?mttf=600,mttr=30 or a '+'-joined "
                   "composition replica_crash+nic_degrade?factor=0.5 "
                   "(see `list`; default is no faults)"),
    SpecField("recovery", "recovery", RecoverySpec,
              (RecoverySpec.registry,),
              "recovery policies (--recovery, same grammar)",
              help="recovery policy for faulted requests: "
                   "retry?max=3,base_s=1.0, migrate, or none (see `list`; "
                   "default retry — only active when --faults is set)"),
    SpecField("autoscaler", "autoscaler", AutoscalerSpec,
              (AutoscalerSpec.registry,),
              "autoscaler policies (--autoscaler, same grammar)",
              none_unsets=True,
              help="autoscaler policy: static, "
                   "reactive?queue_hi=8,queue_lo=1, slo?target=0.9, or "
                   "schedule?plan=0:1.0|450:0.5 (see `list`; default "
                   "keeps the fixed fleet)"),
    SpecField("admission", "admission", AdmissionSpec,
              (AdmissionSpec.registry,),
              "admission policies (--admission, same grammar)",
              none_unsets=True,
              help="admission policy: accept_all, shed?queue_max=64, or "
                   "degrade?tier=1,method=hack_int4 (see `list`; default "
                   "accepts every arrival)"),
)

FIELDS_BY_NAME = {field.name: field for field in SPEC_FIELDS}
