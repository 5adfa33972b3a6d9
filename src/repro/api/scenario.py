"""Declarative run descriptions: the :class:`Scenario`.

A scenario is the single front door for running anything in this repo:
it names a (model, methods, dataset, cluster, load) cell declaratively
and is JSON-(de)serializable, so runs can be saved, diffed, swept over
and dispatched to worker processes.  Resolution of a scenario into a
concrete trace + cluster configs lives in :mod:`repro.api.runner`; this
module is pure description.

Field semantics follow the paper's §7.1 conventions:

* ``rps=None`` derives the arrival rate from the *baseline* system's
  capacity at ``load_factor`` (default 1.05 — just past saturation);
* ``n_requests=None`` sizes the trace to cover a comparable wall-clock
  horizon for every dataset; ``scale`` multiplies it for quick runs;
* ``n_prefill_replicas``/``n_decode_replicas`` override the Table 2/3
  fleet-derived replica counts (used by the Fig. 14 scalability sweep);
* ``calibration`` holds overrides applied on top of
  :data:`repro.perfmodel.calibration.DEFAULT_CALIBRATION`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import re
from dataclasses import dataclass, field, replace

from ..cluster.gpu import get_gpu
from ..cluster.instances import parse_fleet_spec
from ..methods import MethodSpec
from ..model.config import ModelSpec
from ..spec import check_count, check_real, split_list
from ..workload.datasets import get_dataset
from .fields import FIELDS_BY_NAME, SPEC_FIELDS

__all__ = ["Scenario", "model_dataset", "DEFAULT_LOAD_FACTOR", "DEFAULT_SEED",
           "DEFAULT_N_REQUESTS", "MAX_AUTO_REQUESTS"]

#: §7.1 operating point: the cluster is loaded slightly past the
#: baseline's bottleneck capacity, the regime where the paper's JCT
#: gaps appear (the baseline queues; compressed methods keep headroom).
DEFAULT_LOAD_FACTOR = 1.05
DEFAULT_SEED = 1
DEFAULT_N_REQUESTS = 120
MAX_AUTO_REQUESTS = 600

_METHODS_FIELD = FIELDS_BY_NAME["methods"]
#: Every spec-valued field except the required ``methods``.
_OPTIONAL_SPEC_FIELDS = tuple(f for f in SPEC_FIELDS
                              if f is not _METHODS_FIELD)
_OPTIONAL_NAMES = tuple(f.name for f in _OPTIONAL_SPEC_FIELDS)


#: Optional plain numeric fields (``None`` keeps the default): positive
#: reals, non-negative reals and whole counts >= 1.
_POSITIVE = ("load_factor", "rps")
_NON_NEGATIVE = ("activation_overhead",)
_COUNTS = ("n_requests", "n_prefill_replicas", "n_decode_replicas")


def model_dataset(model: ModelSpec, dataset_name: str) -> tuple[str, int | None]:
    """Resolve the paper's model↔dataset pairing quirks.

    Falcon-180B cannot process Cocktail (2K context); the paper
    substitutes arXiv capped to Falcon's window ("F-arXiv").  Returns
    ``(dataset_name, max_context)``.
    """
    ds = get_dataset(dataset_name)
    if ds.input_len.minimum >= model.max_context:
        return "arxiv", model.max_context
    if ds.input_len.maximum > model.max_context:
        return dataset_name, model.max_context
    return dataset_name, None


@dataclass(frozen=True)
class Scenario:
    """One declarative simulation cell (see module docstring)."""

    model: str = "L"
    #: Canonical method strings: legacy registry names ("hack_pi64") or
    #: MethodSpec grammar ("hack?pi=128,bits=4").  MethodSpec objects
    #: and flat spec dicts are accepted and canonicalized.
    methods: tuple[str, ...] = ("baseline",)
    dataset: str = "cocktail"
    prefill_gpu: str = "A10G"
    decode_gpu: str = "A100"
    n_requests: int | None = None
    load_factor: float | None = None
    rps: float | None = None
    seed: int | None = None
    scale: float = 1.0
    pipelining: bool = False
    n_prefill_replicas: int | None = None
    n_decode_replicas: int | None = None
    activation_overhead: float | None = None
    #: Decode stepping: ``"span"`` (fast-forward, the
    #: :class:`~repro.sim.engine.ClusterConfig` default) or ``"token"``
    #: (legacy per-token events, for differential testing); ``None``
    #: keeps the cluster default.
    step_mode: str | None = None
    #: Arrival process: a grammar string (``"poisson"``,
    #: ``"mmpp?burst=4.0,duty=0.1"``, …) or an
    #: :class:`~repro.workload.arrivals.ArrivalSpec`; ``None`` keeps
    #: the historical Poisson default (and serializes/slugs exactly as
    #: before the field existed).
    arrival: str | None = None
    #: Scheduling policy pair: a grammar string naming a dispatch
    #: and/or placement policy (``"round_robin"``, ``"best_fit"``,
    #: ``"random?seed=7+no_swap"``) or a
    #: :class:`~repro.sim.scheduling.SchedulerSpec`; ``None`` keeps the
    #: paper's §7.1 pair (and serializes/slugs exactly as before the
    #: field existed).
    scheduler: str | None = None
    #: Tiered KV store for prefix caching: a grammar string
    #: (``"tiered?dram_gb=8.0+lfu"``, or a bare eviction name like
    #: ``"lfu"``) or a :class:`~repro.kvstore.KVStoreSpec`; ``None``
    #: keeps the historical no-store path (and serializes/slugs exactly
    #: as before the field existed).
    kvstore: str | None = None
    #: Per-request compression-selection policy: a grammar string
    #: (``"slo_tier"``, ``"congestion?hi=0.8,lo=0.5"``) or a
    #: :class:`~repro.kvstore.SelectionSpec`; ``None`` keeps one method
    #: per cluster (and serializes/slugs exactly as before).
    selection: str | None = None
    #: Fault-injection plan: a grammar string
    #: (``"replica_crash?mttf=600"``, ``+``-composed) or a
    #: :class:`~repro.sim.faults.FaultPlan`; ``None`` injects nothing
    #: (and serializes/slugs exactly as before the field existed).
    faults: str | None = None
    #: Recovery policy for fault-interrupted requests: a grammar string
    #: (``"retry?max=5"``, ``"none"``, ``"migrate"``) or a
    #: :class:`~repro.sim.recovery.RecoverySpec`; ``None`` means the
    #: default ``retry`` policy when faults are set.
    recovery: str | None = None
    #: Autoscaler policy: a grammar string (``"static"``,
    #: ``"reactive?queue_hi=6.0"``, ``"schedule?plan=0:1.0|450:0.5"``)
    #: or an :class:`~repro.sim.elastic.AutoscalerSpec`; ``None`` keeps
    #: the historical fixed fleet (and serializes/slugs exactly as
    #: before the field existed).
    autoscaler: str | None = None
    #: Admission policy: a grammar string (``"accept_all"``,
    #: ``"shed?queue_max=48.0"``, ``"degrade?tier=1.0"``) or an
    #: :class:`~repro.sim.elastic.AdmissionSpec`; ``None`` accepts
    #: every arrival unchanged.
    admission: str | None = None
    #: Overrides on DEFAULT_CALIBRATION, e.g. {"net_efficiency": 0.25}.
    calibration: tuple[tuple[str, float], ...] | None = None
    #: Optional human label; never affects resolution, equality or the
    #: slug (two runs of the same cell compare equal however labelled).
    name: str | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        # Normalize list-ish inputs so scenarios hash/compare cleanly.
        # Methods may be legacy names, MethodSpec grammar strings
        # ("hack?pi=128,bits=4"), MethodSpec objects or flat spec dicts;
        # everything canonicalizes to strings (legacy names untouched,
        # so pre-spec scenarios serialize and slug exactly as before).
        methods = self.methods
        if isinstance(methods, str):
            methods = split_list(methods)
        elif isinstance(methods, (MethodSpec, dict)):
            methods = (methods,)
        object.__setattr__(self, "methods", tuple(
            _METHODS_FIELD.canonical(m) for m in methods))
        if not self.methods:
            raise ValueError("scenario needs at least one method")
        if self.calibration is not None:
            calib = self.calibration
            if isinstance(calib, dict):
                calib = tuple(sorted(calib.items()))
            for key, value in calib:
                check_real(f"calibration value {key}", value,
                           positive=False)
            object.__setattr__(self, "calibration", tuple(
                (str(k), float(v)) for k, v in calib
            ))
        check_real("scale", self.scale, positive=True)
        if self.seed is not None:
            check_count("seed", self.seed, minimum=0)
        parse_fleet_spec(self.prefill_gpu)  # unknown GPUs fail here
        try:
            get_gpu(self.decode_gpu)
        except KeyError as exc:
            raise ValueError(f"decode_gpu: {exc.args[0]}") from None
        for name in _POSITIVE + _NON_NEGATIVE + _COUNTS:
            value = getattr(self, name)
            if value is None:
                continue
            if name in _COUNTS:
                check_count(name, value)
            else:
                check_real(name, value, positive=name in _POSITIVE)
        if self.step_mode not in (None, "span", "token"):
            raise ValueError(
                f"step_mode must be 'span', 'token' or None, got "
                f"{self.step_mode!r}"
            )
        # The other spec fields are optional: None keeps the historical
        # behaviour, anything else canonicalizes (see SpecField).
        for spec_field in _OPTIONAL_SPEC_FIELDS:
            value = getattr(self, spec_field.name)
            if value is not None:
                object.__setattr__(self, spec_field.name,
                                   spec_field.canonical(value))

    # -- derived views --------------------------------------------------------

    def calibration_overrides(self) -> dict[str, float]:
        return dict(self.calibration) if self.calibration else {}

    def replace(self, **changes) -> "Scenario":
        """A copy with selected fields changed."""
        return replace(self, **changes)

    def split_methods(self) -> list["Scenario"]:
        """One single-method scenario per method (the parallel work unit).

        Resolution depends only on (model, dataset, cluster, load) —
        never on the method set — so the split scenarios replay the
        exact same trace and their merged results equal a joint run.
        """
        return [self.replace(methods=(m,)) for m in self.methods]

    # -- (de)serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        """A JSON-ready dict (calibration as a plain mapping).

        ``step_mode``, ``arrival``, ``scheduler``, ``kvstore``,
        ``selection``, ``faults``, ``recovery``, ``autoscaler`` and
        ``admission`` are emitted only
        when set: a defaulted scenario serializes exactly as it did
        before the fields existed, so schema readers predating them
        still load such artifacts (and slugs of pre-existing scenarios
        are unchanged).
        """
        out = dataclasses.asdict(self)
        out["methods"] = list(self.methods)
        out["calibration"] = (dict(self.calibration)
                              if self.calibration else None)
        for optional in ("step_mode", *_OPTIONAL_NAMES):
            if out[optional] is None:
                del out[optional]
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown scenario field(s) {sorted(unknown)}; "
                f"expected a subset of {sorted(known)}"
            )
        kwargs = dict(data)
        if isinstance(kwargs.get("methods"), list):
            kwargs["methods"] = tuple(kwargs["methods"])
        return cls(**kwargs)

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True,
                          allow_nan=False)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        return cls.from_dict(json.loads(text))

    def slug(self) -> str:
        """Deterministic filesystem-friendly identifier.

        Derived from the resolution-relevant fields only — the ``name``
        label never changes the slug.
        """
        payload = self.to_dict()
        del payload["name"]
        canonical = json.dumps(payload, sort_keys=True)
        digest = hashlib.md5(canonical.encode()).hexdigest()[:8]
        parts = [self.model, self.dataset, self.prefill_gpu,
                 "+".join(self.methods)]
        # Spec grammar characters ("?", ",") are not filesystem-safe;
        # legacy names contain only allowed characters, so their slugs
        # are byte-identical to the pre-spec scheme.
        base = "-".join(re.sub(r"[^a-z0-9_+=.-]", "_", p.lower())
                        for p in parts)
        return f"{base}-{digest}"

    def describe(self) -> str:
        """One-line human summary (used by the CLI)."""
        bits = [f"model={self.model}", f"dataset={self.dataset}",
                f"prefill={self.prefill_gpu}", f"decode={self.decode_gpu}",
                f"methods={','.join(self.methods)}"]
        for fname in ("rps", "load_factor", "n_requests", "seed", "scale",
                      "n_prefill_replicas", "n_decode_replicas",
                      "activation_overhead", "step_mode",
                      *_OPTIONAL_NAMES):
            value = getattr(self, fname)
            if value is not None and (fname != "scale" or value != 1.0):
                bits.append(f"{fname}={value}")
        if self.calibration:
            bits.append("calib=" + ",".join(
                f"{k}:{format(v, 'g')}" for k, v in self.calibration))
        if self.pipelining:
            bits.append("pipelining")
        return " ".join(bits)
