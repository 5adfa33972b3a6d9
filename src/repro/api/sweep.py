"""Cartesian scenario grids: the :class:`Sweep`.

A sweep is a base :class:`~repro.api.scenario.Scenario` plus named axes
— any Scenario field mapped to a list of values — expanded row-major
(later axes vary fastest) into the full cartesian grid.  Like the
Scenario itself it is JSON-(de)serializable, so whole evaluation grids
(the FlowKV/KVServe-style model × method × load matrices) can live in
version control and be replayed bit-identically.

Beyond Scenario fields, axes named ``method.<param>`` sweep a
**method-spec parameter** (see :mod:`repro.methods.spec`): each value
is applied to every method of the scenario whose family defines the
parameter (others pass through unchanged, so a ``baseline`` comparator
can ride along a ``method.partition_size`` sweep)::

    Sweep(Scenario(methods=("baseline", "hack")),
          axes={"method.partition_size": [32, 64, 128, 256]})

expands to four scenarios whose methods are ``("baseline",
"hack?pi=32")`` … ``("baseline", "hack?pi=256")`` — one artifact per
spec, exactly like any other axis.

Axes named ``kvstore.<param>`` sweep a **KV-store family parameter**
(see :mod:`repro.kvstore`) on the base scenario's store — or on the
default ``tiered`` store when the base has none (sweeping
``kvstore.dram_gb`` implies a store exists)::

    Sweep(Scenario(kvstore="tiered+lfu"),
          axes={"kvstore.dram_gb": [4.0, 16.0, 64.0]})

The ``kvstore`` and ``selection`` fields themselves are ordinary
Scenario-field axes (``axes={"selection": ["slo_tier", "congestion"]}``).
"""

from __future__ import annotations

import dataclasses
import itertools
import json
from dataclasses import dataclass, replace

from ..kvstore.spec import KVStoreSpec, kvstore_spec
from ..methods import apply_method_params
from .scenario import Scenario

__all__ = ["Sweep", "METHOD_AXIS_PREFIX", "KVSTORE_AXIS_PREFIX"]

_SCENARIO_FIELDS = {f.name for f in dataclasses.fields(Scenario)}

#: Axis-name prefix selecting a method-spec parameter instead of a
#: Scenario field.
METHOD_AXIS_PREFIX = "method."

#: Axis-name prefix selecting a KV-store family parameter (e.g.
#: ``kvstore.dram_gb``); applied via
#: :meth:`repro.kvstore.KVStoreSpec.with_params`.
KVSTORE_AXIS_PREFIX = "kvstore."


def _freeze(value):
    """Lists inside axis values become tuples (e.g. a methods axis)."""
    if isinstance(value, list):
        return tuple(value)
    return value


@dataclass(frozen=True)
class Sweep:
    """A cartesian grid of scenarios over ``base``."""

    base: Scenario
    #: Ordered (field, values) pairs; dicts are accepted and frozen.
    axes: tuple[tuple[str, tuple], ...] = ()

    def __post_init__(self) -> None:
        axes = self.axes
        if isinstance(axes, dict):
            axes = tuple(axes.items())
        frozen = []
        for name, values in axes:
            if name.startswith(METHOD_AXIS_PREFIX):
                if not name[len(METHOD_AXIS_PREFIX):]:
                    raise ValueError(
                        f"method axis {name!r} names no parameter; use "
                        "method.<param>, e.g. method.partition_size"
                    )
            elif name.startswith(KVSTORE_AXIS_PREFIX):
                if not name[len(KVSTORE_AXIS_PREFIX):]:
                    raise ValueError(
                        f"kvstore axis {name!r} names no parameter; use "
                        "kvstore.<param>, e.g. kvstore.dram_gb"
                    )
            elif name not in _SCENARIO_FIELDS or name == "name":
                raise ValueError(
                    f"{name!r} is not a sweepable Scenario field "
                    f"(method-spec parameters sweep as "
                    f"{METHOD_AXIS_PREFIX}<param>, KV-store parameters "
                    f"as {KVSTORE_AXIS_PREFIX}<param>)"
                )
            values = tuple(_freeze(v) for v in values)
            if not values:
                raise ValueError(f"axis {name!r} has no values")
            frozen.append((name, values))
        object.__setattr__(self, "axes", tuple(frozen))

    def __len__(self) -> int:
        n = 1
        for _, values in self.axes:
            n *= len(values)
        return n

    def axis_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.axes)

    def override(self, **changes) -> "Sweep":
        """A sweep with base-scenario fields changed (e.g. ``scale``)."""
        return replace(self, base=self.base.replace(**changes))

    def expand(self) -> list[Scenario]:
        """The full grid, row-major (later axes vary fastest)."""
        if not self.axes:
            return [self.base]
        names = [name for name, _ in self.axes]
        grids = [values for _, values in self.axes]
        out = []
        #: Changed parameters that applied in no cell so far.  Checked
        #: across the whole expansion (not per cell) so a comparator
        #: rides along both inside one method set and as its own
        #: `methods`-axis cell — but a typo'd parameter, inert
        #: everywhere, still errors instead of expanding to duplicate
        #: scenarios with colliding slugs.
        inert: set | None = None
        for combo in itertools.product(*grids):
            changes = dict(zip(names, combo))
            label = " ".join(f"{n}={_label(v)}" for n, v in changes.items())
            spec_changes = {
                n[len(METHOD_AXIS_PREFIX):]: changes.pop(n)
                for n in [n for n in changes
                          if n.startswith(METHOD_AXIS_PREFIX)]
            }
            kv_changes = {
                n[len(KVSTORE_AXIS_PREFIX):]: changes.pop(n)
                for n in [n for n in changes
                          if n.startswith(KVSTORE_AXIS_PREFIX)]
            }
            if kv_changes:
                # Unknown parameters raise inside with_params — a typo'd
                # kvstore axis fails the whole expansion, like a typo'd
                # Scenario field.
                spec = kvstore_spec(self.base.kvstore) \
                    if self.base.kvstore is not None else KVStoreSpec()
                changes["kvstore"] = spec.with_params(
                    **kv_changes).canonical()
            scenario = self.base.replace(name=label, **changes)
            if spec_changes:
                methods, applied = _apply_spec_changes(scenario.methods,
                                                       spec_changes)
                scenario = scenario.replace(methods=methods)
                missing = set(spec_changes) - applied
                inert = missing if inert is None else inert & missing
            out.append(scenario)
        if inert:
            raise ValueError(
                f"method axis parameter(s) {sorted(inert)} apply to none "
                "of the swept methods"
            )
        return out

    # -- (de)serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "base": self.base.to_dict(),
            "axes": {name: list(values) for name, values in self.axes},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Sweep":
        unknown = set(data) - {"base", "axes"}
        if unknown:
            raise ValueError(f"unknown sweep field(s) {sorted(unknown)}")
        return cls(base=Scenario.from_dict(data.get("base", {})),
                   axes=tuple(data.get("axes", {}).items()))

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True,
                          allow_nan=False)

    @classmethod
    def from_json(cls, text: str) -> "Sweep":
        return cls.from_dict(json.loads(text))


def _apply_spec_changes(methods: tuple[str, ...], changes: dict
                        ) -> tuple[tuple[str, ...], set]:
    """Apply method-parameter changes to every applicable method.

    Returns the rewritten methods plus the set of changed parameters
    some method's family defines; :meth:`Sweep.expand` raises when a
    parameter is inert across the *entire* grid."""
    out, applied = [], set()
    for method in methods:
        new, did = apply_method_params(method, changes)
        out.append(new)
        applied |= did
    return tuple(out), applied


def _label(value) -> str:
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)
