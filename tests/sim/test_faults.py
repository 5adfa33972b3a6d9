"""Fault/recovery spec grammar, registries and timeline determinism."""

import numpy as np
import pytest

from repro.sim import (
    FaultPlan,
    FaultSpec,
    RecoverySpec,
    fault_families,
    recovery_policies,
    register_fault,
    register_recovery,
)
from repro.sim.faults import FaultFamily, FaultParam
from repro.sim.recovery import RecoveryPolicy, has_recovery_policy
from repro.spec import split_list


class TestFaultGrammar:
    def test_parse_and_canonical(self):
        plan = FaultPlan.parse("replica_crash?mttr=15,mttf=120")
        assert plan.canonical() == "replica_crash?mttf=120.0,mttr=15.0"

    def test_bare_family_keeps_no_params(self):
        plan = FaultPlan.parse("transfer_flap")
        assert plan.canonical() == "transfer_flap"
        assert plan.faults[0].resolved_params() == {"p_fail": 0.05}

    def test_composition_preserves_order(self):
        plan = FaultPlan.parse("transfer_flap?p_fail=0.01+replica_crash")
        assert plan.canonical() == \
            "transfer_flap?p_fail=0.01+replica_crash"
        assert [s.kind for s in plan.faults] == \
            ["transfer_flap", "replica_crash"]

    def test_repeated_family_allowed(self):
        plan = FaultPlan.parse(
            "nic_degrade?start=10,duration=5+nic_degrade?start=50,duration=5")
        assert len(plan.faults) == 2

    def test_unknown_family_suggests(self):
        with pytest.raises(ValueError, match="replica_crash"):
            FaultPlan.parse("replica_crsh")

    def test_unknown_param_suggests(self):
        with pytest.raises(ValueError, match="mttf"):
            FaultPlan.parse("replica_crash?mtff=60")

    def test_word_param_validated(self):
        assert FaultPlan.parse("replica_crash?role=prefill").faults[0] \
            .resolved_params()["role"] == "prefill"
        with pytest.raises(ValueError, match="role"):
            FaultPlan.parse("replica_crash?role=gateway")

    @pytest.mark.parametrize("bad", [
        "replica_crash?mttf=0", "replica_crash?mttr=-1",
        "replica_crash?replicas=0.5", "nic_degrade?factor=0",
        "nic_degrade?factor=1.5", "nic_degrade?duration=0",
        "transfer_flap?p_fail=1.1", "kvstore_outage?duration=-5",
    ])
    def test_out_of_range_params_rejected(self, bad):
        with pytest.raises(ValueError):
            FaultPlan.parse(bad)

    def test_duplicate_param_rejected(self):
        with pytest.raises(ValueError, match="twice"):
            FaultPlan.parse("transfer_flap?p_fail=0.1,p_fail=0.2")

    def test_split_keeps_params_attached(self):
        assert split_list(
            "transfer_flap,replica_crash?mttf=300,mttr=20+nic_degrade"
        ) == ["transfer_flap", "replica_crash?mttf=300,mttr=20+nic_degrade"]

    def test_split_continuation_only_inside_open_clause(self):
        assert split_list("nic_degrade+transfer_flap,nic_degrade") \
            == ["nic_degrade+transfer_flap", "nic_degrade"]

    def test_has_fault_families(self):
        assert FaultPlan.known("replica_crash+transfer_flap?p_fail=0.1")
        assert not FaultPlan.known("replica_crash+mystery_fault")

    def test_canonical_accepts_plan_spec_and_string(self):
        spec = FaultSpec.of("transfer_flap", p_fail=0.1)
        assert FaultPlan.canonical_of(spec) == "transfer_flap?p_fail=0.1"
        assert FaultPlan.canonical_of(FaultPlan((spec,))) == \
            "transfer_flap?p_fail=0.1"
        assert FaultPlan.canonical_of("transfer_flap?p_fail=0.1") == \
            "transfer_flap?p_fail=0.1"


class TestTimeline:
    def _timeline(self, text, horizon=500.0, seed=None):
        plan = FaultPlan.parse(text)
        rng = np.random.default_rng(plan.rng_seed()
                                    if seed is None else seed)
        return plan.timeline(rng, horizon, n_prefill=5, n_decode=4)

    def test_seed_is_a_pure_function_of_the_canonical_string(self):
        a = FaultPlan.parse("replica_crash?mttf=120,mttr=15")
        b = FaultPlan.parse("replica_crash?mttr=15,mttf=120")
        assert a.rng_seed() == b.rng_seed()
        assert a.rng_seed() != FaultPlan.parse("replica_crash").rng_seed()

    def test_timeline_deterministic(self):
        assert self._timeline("replica_crash?mttf=50,mttr=10,replicas=2") \
            == self._timeline("replica_crash?mttf=50,mttr=10,replicas=2")

    def test_timeline_sorted_and_paired(self):
        events = self._timeline("replica_crash?mttf=40,mttr=5")
        times = [t for t, _, _ in events]
        assert times == sorted(times)
        downs = [e for e in events if e[1] == "replica_down"]
        ups = [e for e in events if e[1] == "replica_up"]
        assert len(downs) == len(ups) > 0   # every crash gets a repair

    def test_crash_leaves_one_replica_unaffected(self):
        events = self._timeline(
            "replica_crash?mttf=10,mttr=1,replicas=99,role=decode")
        targets = {payload[1] for _, kind, payload in events}
        assert targets <= set(range(3))     # fleet of 4 -> at most 3

    def test_window_families_emit_on_off_pairs(self):
        events = self._timeline(
            "nic_degrade?factor=0.5,start=10,duration=20"
            "+kvstore_outage?tier=pool,start=5,duration=50")
        assert (10.0, "nic_on", 0.5) in events
        assert (30.0, "nic_off", 0.5) in events
        assert (5.0, "kv_dark", ("pool", True)) in events
        assert (55.0, "kv_dark", ("pool", False)) in events

    def test_flap_probability_composes_independently(self):
        plan = FaultPlan.parse(
            "transfer_flap?p_fail=0.5+transfer_flap?p_fail=0.5")
        assert plan.transfer_fail_prob() == pytest.approx(0.75)
        assert FaultPlan.parse("replica_crash").transfer_fail_prob() == 0.0


class TestFaultRegistry:
    def test_builtins_registered(self):
        assert {"replica_crash", "nic_degrade", "transfer_flap",
                "kvstore_outage"} <= set(fault_families())

    def test_custom_family_round_trips(self):
        @register_fault(replace=True)
        class BlackoutFault(FaultFamily):
            name = "test_blackout"
            description = "everything down for a window"
            params = {"start": FaultParam(10.0, "window start")}

            def events(self, rng, horizon_s, n_prefill, n_decode):
                return [(self.p["start"], "nic_on", 0.5)]

        try:
            plan = FaultPlan.parse("test_blackout?start=3")
            assert plan.canonical() == "test_blackout?start=3.0"
            rng = np.random.default_rng(0)
            assert plan.timeline(rng, 100.0, 1, 1) == [(3.0, "nic_on", 0.5)]
        finally:
            import repro.sim.faults as faults_mod
            faults_mod._FAULTS.pop("test_blackout", None)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            @register_fault
            class Dup(FaultFamily):
                name = "transfer_flap"

    def test_non_family_rejected(self):
        with pytest.raises(TypeError):
            register_fault(object)


class TestRecoveryGrammar:
    def test_parse_and_canonical(self):
        spec = RecoverySpec.parse("retry?max=5,base_s=0.5")
        assert spec.canonical() == "retry?base_s=0.5,max=5.0"
        assert RecoverySpec.canonical_of("none") == "none"

    def test_unknown_policy_suggests(self):
        with pytest.raises(ValueError, match="retry"):
            RecoverySpec.parse("rety")

    @pytest.mark.parametrize("bad", [
        "retry?max=0", "retry?base_s=0", "retry?base_s=10,cap_s=1",
        "migrate?max=0.5",
    ])
    def test_out_of_range_params_rejected(self, bad):
        with pytest.raises(ValueError):
            RecoverySpec.parse(bad)

    def test_split_keeps_params_attached(self):
        assert split_list("none,retry?max=5,base_s=0.5,migrate") \
            == ["none", "retry?max=5,base_s=0.5", "migrate"]
        assert split_list("none,migrate,retry") == \
            ["none", "migrate", "retry"]

    def test_has_recovery_policy(self):
        assert has_recovery_policy("retry?max=2")
        assert not has_recovery_policy("give_up")


class TestRecoveryPolicies:
    def test_builtins_registered(self):
        assert {"none", "retry", "migrate"} <= set(recovery_policies())

    def test_none_fails_immediately(self):
        policy = RecoverySpec("none").build()
        assert policy.delay(None, 1, np.random.default_rng(0)) is None

    def test_retry_backoff_doubles_within_jitter(self):
        policy = RecoverySpec.parse(
            "retry?max=4,base_s=1.0,cap_s=100.0").build()
        rng = np.random.default_rng(0)
        for attempt in range(1, 5):
            d = policy.delay(None, attempt, rng)
            backoff = 2.0 ** (attempt - 1)
            assert 0.5 * backoff <= d < 1.5 * backoff
        assert policy.delay(None, 5, rng) is None

    def test_retry_backoff_capped(self):
        policy = RecoverySpec.parse("retry?max=9,base_s=1.0,cap_s=2.0").build()
        rng = np.random.default_rng(0)
        for attempt in range(1, 10):
            assert policy.delay(None, attempt, rng) < 3.0

    def test_retry_jitter_is_deterministic_per_stream(self):
        policy = RecoverySpec.parse("retry").build()
        a = policy.delay(None, 1, np.random.default_rng(7))
        b = policy.delay(None, 1, np.random.default_rng(7))
        assert a == b

    def test_migrate_is_immediate_until_exhausted(self):
        policy = RecoverySpec.parse("migrate?max=2").build()
        rng = np.random.default_rng(0)
        assert policy.delay(None, 1, rng) == 0.0
        assert policy.delay(None, 2, rng) == 0.0
        assert policy.delay(None, 3, rng) is None

    def test_custom_policy_registers(self):
        @register_recovery(replace=True)
        class HalfRecovery(RecoveryPolicy):
            name = "test_half"
            description = "fixed half-second delay"

            def delay(self, req, attempt, rng):
                return 0.5

        try:
            assert RecoverySpec.parse("test_half").build() \
                .delay(None, 1, np.random.default_rng(0)) == 0.5
        finally:
            import repro.sim.recovery as recovery_mod
            recovery_mod._RECOVERIES.pop("test_half", None)
