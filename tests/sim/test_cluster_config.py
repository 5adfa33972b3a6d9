"""The one path a spec-valued cluster field takes.

A scenario's scheduler, KV store, selection, fault, recovery, autoscaler
and admission specs reach :class:`ClusterConfig` unchanged through
``resolve`` and ``default_cluster``; ``ClusterConfig`` alone coerces them,
by :data:`CLUSTER_SPEC_FIELDS`.  These tests pin that a grammar string,
its spec object and ``default_cluster`` build the same config, that a bad
string fails at construction, and that the engine's table agrees with
the scenario's :data:`~repro.api.fields.SPEC_FIELDS`.  They also pin that
a fleet which cannot serve is rejected at construction, as
:class:`~repro.api.Scenario` rejects it.
"""

import dataclasses

import pytest

from repro.api import Scenario
from repro.api.fields import SPEC_FIELDS
from repro.methods import get_method
from repro.model import get_model
from repro.sim.engine import CLUSTER_SPEC_FIELDS, ClusterConfig, \
    default_cluster

L = get_model("L")
HACK = get_method("hack")

#: One parameterised string per field.  Each must be pinned in
#: ``tests/spec/spec_golden.json``, like every spec string the tests use.
EXAMPLES = {
    "scheduler": "random?seed=3+no_swap",
    "kvstore": "tiered?dram_gb=0.5",
    "selection": "congestion?hi=0.75,lo=0.5",
    "faults": "nic_degrade?factor=0.2,start=1.0,duration=20.0"
              "+transfer_flap?p_fail=0.1",
    "recovery": "retry?base_s=0.5,cap_s=4.0,max=3.0",
    "autoscaler": "reactive?queue_hi=4.0",
    "admission": "shed?queue_max=10",
}
FIELDS = tuple(name for name, _ in CLUSTER_SPEC_FIELDS)
SPEC_TYPES = dict(CLUSTER_SPEC_FIELDS)


def _base() -> ClusterConfig:
    return default_cluster(L, HACK, "A10G")


def test_engine_table_agrees_with_spec_fields():
    scenario_types = {f.name: f.spec for f in SPEC_FIELDS}
    # ``methods`` and ``arrival`` shape the trace and the method, not the
    # cluster's optional components.
    assert set(scenario_types) - set(SPEC_TYPES) == {"methods", "arrival"}
    assert {name: scenario_types[name] for name in SPEC_TYPES} == SPEC_TYPES
    cluster_fields = {f.name for f in dataclasses.fields(ClusterConfig)}
    scenario_fields = {f.name for f in dataclasses.fields(Scenario)}
    assert set(SPEC_TYPES) <= cluster_fields & scenario_fields


@pytest.mark.parametrize("name", FIELDS)
def test_string_spec_and_default_cluster_agree(name):
    text = EXAMPLES[name]
    spec = SPEC_TYPES[name].parse(text)
    base = _base()
    from_string = dataclasses.replace(base, **{name: text})
    from_spec = dataclasses.replace(base, **{name: spec})
    via_default = default_cluster(L, HACK, "A10G", **{name: text})
    assert from_string == from_spec == via_default
    assert isinstance(getattr(via_default, name), SPEC_TYPES[name])
    assert getattr(via_default, name) == spec
    # Nothing else moves.
    assert dataclasses.replace(via_default, **{name: None}) == base


@pytest.mark.parametrize("name", FIELDS)
def test_malformed_string_fails_at_construction(name):
    text = EXAMPLES[name]
    last = text.rpartition("+")[2]
    bad_param = text + ("," if "?" in last else "?") + "no_such_param=1"
    for bad in (bad_param, "no_such_family"):
        with pytest.raises(ValueError):
            dataclasses.replace(_base(), **{name: bad})
        with pytest.raises(ValueError):
            default_cluster(L, HACK, "A10G", **{name: bad})


@pytest.mark.parametrize("name, bad", [
    ("n_prefill_replicas", 0),      # would park every request forever
    ("n_decode_replicas", 0),       # would fail inside the engine
    ("activation_overhead", float("nan")),  # would reach the summary
    ("activation_overhead", -0.9),  # would shrink the weights
])
def test_fleet_that_cannot_serve_is_rejected(name, bad):
    with pytest.raises(ValueError, match=name):
        default_cluster(L, HACK, "A10G", **{name: bad})
