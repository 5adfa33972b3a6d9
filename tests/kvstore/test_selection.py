"""Compression-selection policies: grammar, registry, choose() logic."""

from types import SimpleNamespace

import pytest

from repro.kvstore import (
    CompressionSelectionPolicy,
    SelectionSpec,
    register_selection,
    selection_policies,
)
from repro.methods import get_method
from repro.spec import split_list


def _req(slo_tier=0):
    return SimpleNamespace(trace=SimpleNamespace(slo_tier=slo_tier))


def _sim(method=None, kvstore=None, prefill=()):
    return SimpleNamespace(method=method or get_method("hack"),
                           kvstore=kvstore, _prefill=list(prefill))


class TestGrammar:
    def test_bare_family(self):
        spec = SelectionSpec.parse("static")
        assert spec.kind == "static" and spec.params == ()
        assert spec.canonical() == "static"

    def test_params_canonicalize_sorted(self):
        assert SelectionSpec.canonical_of("congestion?lo=0.4,hi=0.8") == \
            "congestion?hi=0.8,lo=0.4"

    def test_string_and_float_params_coexist(self):
        spec = SelectionSpec.parse("slo_tier?tier0=fp8")
        assert spec.canonical() == "slo_tier?tier0=fp8"
        assert spec.resolved_params()["tier1"] == "hack"

    def test_unknown_family_suggests(self):
        with pytest.raises(ValueError, match="did you mean 'static'"):
            SelectionSpec.parse("sttic")

    def test_unknown_param_suggests(self):
        with pytest.raises(ValueError, match="no parameter"):
            SelectionSpec.parse("congestion?high=0.8")

    def test_method_ref_params_validated(self):
        with pytest.raises(ValueError, match="resolvable method"):
            SelectionSpec.parse("slo_tier?tier0=not_a_method")

    def test_hysteresis_band_validated(self):
        with pytest.raises(ValueError, match="lo must be"):
            SelectionSpec.parse("congestion?hi=0.5,lo=0.6")
        with pytest.raises(ValueError, match="hi must be"):
            SelectionSpec.parse("congestion?hi=1.5")

    def test_spec_helper_passthrough(self):
        spec = SelectionSpec.parse("slo_tier")
        assert SelectionSpec.from_reference(spec) is spec
        with pytest.raises(TypeError):
            SelectionSpec.from_reference(3.14)

    def test_split_list_keeps_params_attached(self):
        assert split_list(
            "static,congestion?hi=0.8,lo=0.4,slo_tier") == \
            ["static", "congestion?hi=0.8,lo=0.4", "slo_tier"]


class TestBuiltinPolicies:
    def test_static_returns_scenario_method(self):
        sim = _sim(method=get_method("baseline"))
        policy = SelectionSpec("static").build()
        assert policy.choose(0.0, _req(), sim) is sim.method

    def test_slo_tier_maps_and_clamps(self):
        policy = SelectionSpec("slo_tier").build()
        sim = _sim()
        assert policy.choose(0.0, _req(0), sim).name == "baseline"
        assert policy.choose(0.0, _req(1), sim).name == "hack"
        assert policy.choose(0.0, _req(2), sim).name == "hack_int4"
        assert policy.choose(0.0, _req(7), sim).name == "hack_int4"
        assert policy.choose(0.0, _req(-3), sim).name == "baseline"

    def test_congestion_hysteresis_latch(self):
        policy = SelectionSpec.parse("congestion?hi=0.75,lo=0.5").build()

        class FakeStore:
            def __init__(self):
                self.occ = 0.0

            def pool_occupancy(self):
                return self.occ

        store = FakeStore()
        sim = _sim(kvstore=store)
        req = _req()
        assert policy.choose(0.0, req, sim) is sim.method   # calm
        store.occ = 0.9
        assert policy.choose(1.0, req, sim).name == "hack_int4"
        store.occ = 0.6            # inside the band: latch holds
        assert policy.choose(2.0, req, sim).name == "hack_int4"
        store.occ = 0.4            # below lo: disarm
        assert policy.choose(3.0, req, sim) is sim.method

    def test_congestion_nic_signal(self):
        policy = SelectionSpec.parse("congestion?nic_s=1.0").build()
        sim = _sim(prefill=[SimpleNamespace(nic_free_at=5.0)])
        assert policy.signal(4.5, sim) == pytest.approx(0.5)
        assert policy.signal(1.0, sim) == 1.0      # saturates at 1
        assert policy.signal(9.0, sim) == 0.0      # backlog in the past


class TestRegistry:
    def test_builtins_present_with_signatures(self):
        policies = selection_policies()
        assert set(policies) >= {"static", "slo_tier", "congestion"}
        for cls in policies.values():
            assert cls.description
            assert cls.signature().startswith(cls.name)

    def test_register_open_and_duplicate_guard(self):
        @register_selection
        class AlwaysBaseline(CompressionSelectionPolicy):
            name = "always_baseline_test"
            description = "test-only: baseline for everyone"

            def choose(self, now, req, sim):
                return get_method("baseline")

        assert SelectionSpec.parse("always_baseline_test").build() \
            .choose(0.0, _req(), _sim()).name == "baseline"
        with pytest.raises(ValueError, match="already registered"):
            register_selection(AlwaysBaseline)
        register_selection(replace=True)(AlwaysBaseline)
