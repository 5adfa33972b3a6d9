"""Elastic cluster subsystem: autoscaler/admission registries, the
``family?k=v`` grammar, and engine integration.

Three layers of guarantees:

* arming the default policies (``static`` + ``accept_all``) is
  **byte-identical** to an unarmed run — the elastic path costs
  nothing until a policy actually acts;
* under active scaling the span fast-forward engine still matches the
  token engine to 1e-9, drain-then-retire never kills in-flight work,
  and scaling composes with fault injection;
* GPU-hour accounting is conserved: the elastic block's hours agree
  with the replica timeseries, static fleets report the peak-sized
  backfill, and goodput-per-GPU-hour rewards scale-to-trough.
"""

import math
from dataclasses import replace

import pytest

from repro.api import Runner, Scenario, Sweep, compare_artifacts
from repro.methods import get_method
from repro.model import get_model
from repro.sim import capacity_rps, default_cluster, simulate
from repro.sim.elastic import (
    AdmissionPolicy,
    AdmissionSpec,
    AutoscalerPolicy,
    AutoscalerSpec,
    ElasticParam,
    autoscaler_policies,
    register_admission,
    register_autoscaler,
)
from repro.workload import generate_trace, get_dataset
from repro.spec import split_list

L = get_model("L")
RTOL = 1e-9

#: One diurnal day with a deep trough — the regime where elasticity
#: pays (short period so the short test traces cover a full cycle).
DIURNAL = "diurnal?amp=0.9,period=120.0"

#: A twitchy reactive policy so scaling actually happens on tiny
#: traces: short cooldown, fast evaluation, quick boots.
REACTIVE = ("reactive?queue_hi=3.0,queue_lo=1.0,cooldown_s=10.0,"
            "interval_s=2.0,cold_start_s=5.0")


def _config(method="hack", mode="span", n_prefill_replicas=None,
            **cfg_kwargs):
    config = default_cluster(L, get_method(method), "A10G",
                             step_mode=mode, **cfg_kwargs)
    if n_prefill_replicas is not None:
        config = replace(config, n_prefill_replicas=n_prefill_replicas)
    return config


def _trace(n=30, seed=0, dataset="cocktail", rps=None, arrival="poisson",
           config=None):
    rate = rps if rps is not None else \
        capacity_rps(config, get_dataset(dataset)) * 1.05
    return generate_trace(dataset, rate, n, seed=seed, arrival=arrival)


def _run(method="hack", mode="span", n=30, seed=0, dataset="cocktail",
         rps=None, arrival="poisson", load=0.4, **cfg_kwargs):
    config = _config(method, mode, **cfg_kwargs)
    if rps is None:
        rps = capacity_rps(config, get_dataset(dataset)) * load
    trace = _trace(n=n, seed=seed, dataset=dataset, rps=rps,
                   arrival=arrival, config=config)
    return simulate(config, trace)


# -- grammar and specs --------------------------------------------------------


class TestGrammar:
    def test_parse_and_canonical_sort_params(self):
        spec = AutoscalerSpec.parse("reactive?queue_lo=1,queue_hi=6")
        assert spec.kind == "reactive"
        assert spec.canonical() == "reactive?queue_hi=6.0,queue_lo=1.0"

    def test_bare_family_canonical_is_bare(self):
        assert AutoscalerSpec.canonical_of("static") == "static"
        assert AdmissionSpec.canonical_of("accept_all") == "accept_all"

    def test_unknown_family_suggests(self):
        with pytest.raises(ValueError, match="reactive"):
            AutoscalerSpec.parse("reactve?queue_hi=6")

    def test_unknown_param_suggests(self):
        with pytest.raises(ValueError, match="queue_hi"):
            AutoscalerSpec.parse("reactive?queue_high=6")

    def test_validation_rejects_inverted_thresholds(self):
        with pytest.raises(ValueError, match="queue_hi"):
            AutoscalerSpec.parse("reactive?queue_hi=1.0,queue_lo=5.0").build()

    def test_schedule_plan_round_trips(self):
        spec = AutoscalerSpec.from_reference(
            "schedule?plan=0:1.0|60:0.5,period_s=120")
        assert "plan=0:1.0|60:0.5" in spec.canonical()
        policy = spec.build()
        assert policy._fraction(0.0) == 1.0
        assert policy._fraction(61.0) == 0.5
        assert policy._fraction(121.0) == 1.0  # wraps at period_s

    def test_schedule_plan_must_start_at_zero(self):
        with pytest.raises(ValueError, match="plan"):
            AutoscalerSpec.from_reference("schedule?plan=10:0.5").build()

    def test_degrade_method_resolved_at_validation(self):
        with pytest.raises(ValueError):
            AdmissionSpec.from_reference("degrade?method=hack_int5").build()

    def test_split_list_respects_param_commas(self):
        items = split_list(
            "static,reactive?queue_hi=6.0,queue_lo=1.0")
        assert items == ["static", "reactive?queue_hi=6.0,queue_lo=1.0"]

    def test_spec_of_constructor(self):
        spec = AutoscalerSpec.of("reactive", queue_hi=4.0)
        assert spec.canonical() == "reactive?queue_hi=4.0"
        assert AdmissionSpec.of("shed", queue_max=8.0).canonical() == \
            "shed?queue_max=8.0"


class TestRegistries:
    def test_builtins_registered(self):
        assert {"static", "reactive", "slo", "schedule"} <= \
            set(autoscaler_policies())

    def test_custom_autoscaler_registers_and_builds(self):
        @register_autoscaler(replace=True)
        class Pinned(AutoscalerPolicy):
            name = "test_pinned"
            description = "always wants exactly one prefill replica"
            params = {"n": ElasticParam(1.0, "target prefill count")}

            def desired(self, now, sim, n_prefill, n_decode,
                        cur_prefill, cur_decode):
                return int(self.p["n"]), n_decode

        try:
            spec = AutoscalerSpec.from_reference("test_pinned?n=2")
            assert spec.build().desired(0, None, 4, 2, 4, 2) == (2, 2)
        finally:
            del autoscaler_policies()["test_pinned"]

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="replace"):
            @register_autoscaler
            class Clash(AutoscalerPolicy):
                name = "static"
                description = "clash"

    def test_policy_signatures_render(self):
        for cls in autoscaler_policies().values():
            sig = cls.signature()
            assert sig.startswith(cls.name)


# -- armed-but-idle byte identity ---------------------------------------------


class TestArmedIdleIdentity:
    def test_static_accept_all_records_identical(self):
        plain = _run(seed=1)
        armed = _run(seed=1, autoscaler="static", admission="accept_all")
        assert plain.to_records() == armed.to_records()

    def test_idle_elastic_block_shape(self):
        armed = _run(seed=1, autoscaler="static")
        stats = armed.elastic_stats
        assert stats["n_scale_ups"] == 0
        assert stats["n_scale_downs"] == 0
        assert stats["scaling_events"] == 0
        assert stats["mean_utilization"] == pytest.approx(1.0)
        assert stats["n_shed"] == 0 and stats["n_degraded"] == 0

    def test_unarmed_run_has_no_elastic_block(self):
        plain = _run(seed=1)
        assert plain.elastic_stats is None
        assert "elastic" not in plain.summary()


# -- GPU-hour accounting ------------------------------------------------------


class TestGpuHours:
    def test_static_backfill_is_fleet_times_makespan(self):
        res = _run(seed=2)
        config = _config()
        total_gpus = (config.prefill_replica().parallelism.n_gpus
                      * config.n_prefill_replicas
                      + config.decode_replica().parallelism.n_gpus
                      * config.n_decode_replicas)
        end = max(r.finish for r in res.requests)
        expected = total_gpus * end / 3600.0
        assert res.gpu_hours() == pytest.approx(expected, rel=1e-12)
        assert res.summary()["gpu_hours"] == pytest.approx(expected)

    def test_armed_static_matches_backfill(self):
        plain = _run(seed=2)
        armed = _run(seed=2, autoscaler="static")
        assert armed.gpu_hours() == \
            pytest.approx(plain.gpu_hours(), rel=1e-6)

    def test_goodput_per_gpu_hour_in_summary(self):
        res = _run(seed=2)
        summ = res.summary()
        assert summ["goodput_per_gpu_hour"] == pytest.approx(
            res.goodput_per_gpu_hour(), rel=1e-12)
        assert summ["goodput_per_gpu_hour"] > 0

    def test_scaled_down_fleet_bills_fewer_hours(self):
        static = _run(seed=3, arrival=DIURNAL, load=0.3,
                      n_prefill_replicas=4, autoscaler="static")
        reactive = _run(seed=3, arrival=DIURNAL, load=0.3,
                        n_prefill_replicas=4, autoscaler=REACTIVE)
        assert reactive.elastic_stats["gpu_hours"] < \
            static.elastic_stats["gpu_hours"]
        # No request is sacrificed for the savings; the efficiency win
        # (goodput per GPU-hour) is asserted at experiment scale in
        # tests/experiments/test_scale_experiment.py.
        assert reactive.summary()["n_requests"] == \
            static.summary()["n_requests"]


# -- active scaling -----------------------------------------------------------


class TestReactiveScaling:
    @pytest.fixture(scope="class")
    def scaled(self):
        return _run(seed=4, n=40, arrival=DIURNAL, load=0.3,
                    n_prefill_replicas=4, autoscaler=REACTIVE)

    def test_scaling_happened(self, scaled):
        stats = scaled.elastic_stats
        assert stats["n_scale_downs"] > 0
        assert stats["mean_prefill_replicas"] < 4.0
        assert len(stats["events"]) == stats["scaling_events"]
        assert stats["timeseries"][0][1] == 4  # starts fully powered

    def test_no_request_lost_to_scaling(self, scaled):
        summ = scaled.summary()
        assert summ["n_requests"] == 40
        assert summ["n_failed"] == 0
        assert scaled.availability() == pytest.approx(1.0)

    def test_replica_counts_stay_in_bounds(self, scaled):
        n_decode = _config().n_decode_replicas
        for _, n_p, n_d in scaled.elastic_stats["timeseries"]:
            assert 1 <= n_p <= 4
            assert 1 <= n_d <= n_decode

    def test_span_matches_token_under_scaling(self):
        span = _run(seed=4, n=40, mode="span", arrival=DIURNAL, load=0.3,
                    n_prefill_replicas=4, autoscaler=REACTIVE)
        token = _run(seed=4, n=40, mode="token", arrival=DIURNAL,
                     load=0.3, n_prefill_replicas=4, autoscaler=REACTIVE)
        srec, trec = span.to_records(), token.to_records()
        assert len(srec) == len(trec)
        for s, t in zip(srec, trec):
            for key in ("ttft_s", "jct_s", "tbt_mean_s"):
                assert math.isclose(s[key], t[key], rel_tol=RTOL,
                                    abs_tol=RTOL)
        sev = span.elastic_stats["events"]
        tev = token.elastic_stats["events"]
        assert len(sev) == len(tev)
        for (st, srole, skind, sn), (tt, trole, tkind, tn) in \
                zip(sev, tev):
            assert (srole, skind, sn) == (trole, tkind, tn)
            assert math.isclose(st, tt, rel_tol=RTOL, abs_tol=RTOL)

    def test_determinism(self, scaled):
        again = _run(seed=4, n=40, arrival=DIURNAL, load=0.3,
                     n_prefill_replicas=4, autoscaler=REACTIVE)
        assert again.to_records() == scaled.to_records()
        assert again.elastic_stats["events"] == \
            scaled.elastic_stats["events"]


class TestScheduleAutoscaler:
    def test_plan_halves_fleet(self):
        res = _run(seed=5, n=40, load=0.3, n_prefill_replicas=4,
                   autoscaler="schedule?plan=0:1.0|20:0.25,"
                              "interval_s=2.0,cold_start_s=5.0")
        stats = res.elastic_stats
        assert stats["n_scale_downs"] > 0
        assert stats["mean_prefill_replicas"] < 4.0


class TestFaultComposition:
    def test_scaling_plus_crashes(self):
        res = _run(seed=6, n=30, arrival=DIURNAL, load=0.35,
                   n_prefill_replicas=4, autoscaler=REACTIVE,
                   faults="replica_crash?mttf=40.0,mttr=8.0",
                   recovery="retry?base_s=0.5,cap_s=4.0,max=3.0")
        summ = res.summary()
        assert summ["n_requests"] + summ["n_rejected"] + \
            summ["n_failed"] == 30
        assert res.elastic_stats["gpu_hours"] > 0
        span = res.to_records()
        token = _run(seed=6, n=30, mode="token", arrival=DIURNAL,
                     load=0.35, n_prefill_replicas=4,
                     autoscaler=REACTIVE,
                     faults="replica_crash?mttf=40.0,mttr=8.0",
                     recovery="retry?base_s=0.5,cap_s=4.0,max=3.0"
                     ).to_records()
        for s, t in zip(span, token):
            assert s["terminal"] == t["terminal"]
            assert math.isclose(s["jct_s"], t["jct_s"], rel_tol=RTOL,
                                abs_tol=RTOL)


# -- admission ----------------------------------------------------------------


class TestAdmission:
    def test_shed_bounds_queue_and_conserves_requests(self):
        res = _run(seed=7, n=40, load=1.4,
                   admission="shed?queue_max=10.0")
        stats = res.elastic_stats
        assert stats["n_shed"] > 0
        summ = res.summary()
        assert summ["n_rejected"] == stats["n_shed"]
        assert summ["n_requests"] + summ["n_rejected"] == 40

    def test_shed_improves_tail_ttft(self):
        open_door = _run(seed=7, n=40, load=1.4)
        capped = _run(seed=7, n=40, load=1.4,
                      admission="shed?queue_max=10.0")
        assert capped.ttft_percentile(99) < open_door.ttft_percentile(99)

    def test_degrade_swaps_method_for_low_tiers(self):
        res = _run(seed=8, n=40, load=0.8,
                   arrival="sessions?turns=2.0,tiers=3.0",
                   admission="degrade?tier=1.0,method=hack_int4")
        assert res.elastic_stats["n_degraded"] > 0
        selected = {r["method_selected"] for r in res.to_records()
                    if "method_selected" in r}
        assert "hack_int4" in selected and "hack" in selected

    def test_custom_admission_policy(self):
        @register_admission(replace=True)
        class EveryOther(AdmissionPolicy):
            name = "test_every_other"
            description = "sheds every second arrival"

            def bind(self, sim):
                self._count = 0

            def admit(self, now, req, sim):
                self._count += 1
                return "shed" if self._count % 2 == 0 else None

        try:
            res = _run(seed=9, n=20, admission="test_every_other")
            assert res.elastic_stats["n_shed"] == 10
        finally:
            from repro.sim.elastic import admission_policies
            del admission_policies()["test_every_other"]


# -- API plumbing -------------------------------------------------------------


class TestScenarioPlumbing:
    def test_fields_canonicalized(self):
        s = Scenario(autoscaler="reactive?queue_lo=1,queue_hi=6",
                     admission="shed?queue_max=32")
        assert s.autoscaler == "reactive?queue_hi=6.0,queue_lo=1.0"
        assert s.admission == "shed?queue_max=32.0"
        loaded = Scenario.from_json(s.to_json())
        assert (loaded.autoscaler, loaded.admission) == \
            (s.autoscaler, s.admission)

    def test_default_omits_fields(self):
        d = Scenario().to_dict()
        assert "autoscaler" not in d and "admission" not in d

    def test_unknown_policies_kept_verbatim(self):
        s = Scenario(autoscaler="my_scaler?x=1", admission="my_gate")
        assert s.autoscaler == "my_scaler?x=1"
        assert s.admission == "my_gate"

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            Scenario(autoscaler="reactive?queue_high=6")

    def test_parallel_sweep_identical_to_serial(self):
        sweep = Sweep(Scenario(methods=("hack",), n_requests=16, seed=3,
                               arrival=DIURNAL, load_factor=0.4,
                               n_prefill_replicas=3),
                      axes={"autoscaler": (None, "static", REACTIVE)})
        serial = [a.to_json() for a in Runner().run_sweep(sweep)]
        parallel = [a.to_json()
                    for a in Runner(workers=2).run_sweep(sweep)]
        assert serial == parallel

    def test_artifact_carries_elastic_block(self):
        art = Runner().run(Scenario(methods=("hack",), n_requests=16,
                                    seed=3, arrival=DIURNAL,
                                    load_factor=0.4,
                                    n_prefill_replicas=3,
                                    autoscaler=REACTIVE))
        block = art.methods["hack"].summary["elastic"]
        assert "events" not in block and "timeseries" not in block
        assert block["goodput_per_gpu_hour"] > 0
        rt = compare_artifacts(
            art, type(art).from_json(art.to_json()))
        assert rt["equal"]
