"""The spec-valued scenario fields: one table row per field.

Every open registry reaches users through one :class:`~repro.api.Scenario`
field, one ``--<field>`` flag and one sweep axis.  :data:`SPEC_FIELDS`
maps each field to its spec type and the registries its grammar names.
The scenario's canonicalisation, the CLI's sweep-axis splitting, the
``cli list`` catalog and the ``repro lint`` grammar round-trip rule all
iterate this table, so a new registry needs one row here and nothing
per-field anywhere else.
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
              "shown)"),
    SpecField("scheduler", "scheduler", SchedulerSpec,
              SchedulerSpec.registries,
              "scheduling policies (--scheduler dispatch[+placement], "
              "same grammar)"),
    SpecField("kvstore", "kvstore", KVStoreSpec, KVStoreSpec.registries,
              "KV-store families (--kvstore family?key=val+eviction, "
              "same grammar)"),
    SpecField("selection", "selection", SelectionSpec,
              (SelectionSpec.registry,),
              "selection policies (--selection, same grammar)"),
    SpecField("faults", "faults", FaultPlan, FaultPlan.registries,
              "fault families (--faults family?key=val+family…, same "
              "grammar)", none_unsets=True),
    SpecField("recovery", "recovery", RecoverySpec,
              (RecoverySpec.registry,),
              "recovery policies (--recovery, same grammar)"),
    SpecField("autoscaler", "autoscaler", AutoscalerSpec,
              (AutoscalerSpec.registry,),
              "autoscaler policies (--autoscaler, same grammar)",
              none_unsets=True),
    SpecField("admission", "admission", AdmissionSpec,
              (AdmissionSpec.registry,),
              "admission policies (--admission, same grammar)",
              none_unsets=True),
)

FIELDS_BY_NAME = {field.name: field for field in SPEC_FIELDS}
