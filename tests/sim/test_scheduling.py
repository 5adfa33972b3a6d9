"""Scheduling & placement policies: differential, grammar, fleet and
edge-case regression tests.

The dispatch/placement refactor must not move a single bit of the
paper's results: the default pair is pinned against pre-refactor golden
JCTs across all 13 legacy methods × both step modes, and the fig9/fig10
render is pinned byte-identical with and without an explicit default
scheduler.  The rest covers the policy grammar, heterogeneous prefill
fleets, the no-swap/reject path and the goodput/empty-aggregate/
capacity-clipping bugfixes that ride along.
"""

import json
import math

import pytest

from repro.api import Runner, Scenario, Sweep
from repro.experiments import fig9_12_jct
from repro.methods import get_method
from repro.model import get_model
from repro.sim import (
    ClusterConfig,
    SchedulerSpec,
    SimulationResult,
    capacity_rps,
    default_cluster,
    simulate,
    stage_capacities,
)
from repro.sim.capacity import clipped_mean_lengths
from repro.sim.request import BUCKETS, SimRequest
from repro.sim.scheduling import PolicySpec
from repro.cluster import parse_fleet_spec
from repro.workload import generate_trace, get_dataset, merge_traces
from repro.workload.traces import TraceRequest
from repro.spec import split_list

L = get_model("L")

#: avg JCT of the §7.1 cell (cocktail, A10G, n=30, seed=0, 1.05×
#: baseline capacity) captured from the engine *before* dispatch/
#: placement were extracted into policies.  The default policy pair
#: must keep reproducing these bit-for-bit.
GOLDEN_AVG_JCT = {
    "baseline": {"token": 50.13010979397682, "span": 50.13010979397681},
    "cachegen": {"token": 36.39329589301899, "span": 36.39329589301897},
    "fp4": {"token": 39.245246146400746, "span": 39.245246146400746},
    "fp6": {"token": 42.21920051108222, "span": 42.21920051108223},
    "fp8": {"token": 43.32599326807183, "span": 43.32599326807182},
    "hack": {"token": 27.588283680614115, "span": 27.588283680614122},
    "hack_int4": {"token": 25.834402922815205, "span": 25.83440292281519},
    "hack_norqe": {"token": 27.70352120163705, "span": 27.703521201637038},
    "hack_nose": {"token": 33.342993035299656, "span": 33.342993035299656},
    "hack_pi128": {"token": 26.765659149019537, "span": 26.765659149019573},
    "hack_pi32": {"token": 29.25686974454113, "span": 29.256869744541145},
    "hack_pi64": {"token": 27.588283680614115, "span": 27.588283680614122},
    "kvquant": {"token": 38.488306540913904, "span": 38.4883065409139},
}

#: stage_capacities of the default baseline cluster (L, A10G) captured
#: pre-change: the capacity clipping fix must not move datasets whose
#: lengths fit the model context.
GOLDEN_CAPACITIES = {
    "imdb": (43.79604078695019, 35.810052024843586, 139.77343424640236),
    "arxiv": (1.6748627343407034, 1.8152035641885027, 1.1067634272904308),
    "cocktail": (0.46893232941571916, 0.7062258612000643,
                 0.6661706701111139),
    "humaneval": (68.01406317006631, 54.867300142567196, 44.62613980972785),
}


def _cell(method: str, mode: str, scheduler=None, gpu: str = "A10G",
          n: int = 30, seed: int = 0):
    config = default_cluster(L, get_method(method), gpu, step_mode=mode,
                             scheduler=scheduler)
    rate = capacity_rps(config, get_dataset("cocktail")) * 1.05
    trace = generate_trace("cocktail", rate, n, seed=seed)
    return simulate(config, trace)


def _assert_equivalent(a, b, rtol=1e-9):
    assert a.n_swapped == b.n_swapped
    assert a.n_rejected == b.n_rejected
    assert len(a.requests) == len(b.requests)
    for ra, rb in zip(a.requests, b.requests):
        assert ra.request_id == rb.request_id
        assert math.isclose(ra.jct, rb.jct, rel_tol=rtol, abs_tol=1e-12)
        da, db = ra.decomposition(), rb.decomposition()
        for bucket in da:
            assert math.isclose(da[bucket], db[bucket], rel_tol=rtol,
                                abs_tol=1e-12)


class TestDefaultPairGolden:
    """The refactored default pair is the pre-refactor engine, bitwise."""

    @pytest.mark.parametrize("method", sorted(GOLDEN_AVG_JCT))
    @pytest.mark.parametrize("mode", ("token", "span"))
    def test_avg_jct_unmoved(self, method, mode):
        assert _cell(method, mode).avg_jct() == \
            pytest.approx(GOLDEN_AVG_JCT[method][mode], rel=1e-12)

    def test_explicit_default_scheduler_identical(self):
        implicit = _cell("hack", "span")
        explicit = _cell("hack", "span",
                         scheduler="splitwise+shortest_queue")
        _assert_equivalent(implicit, explicit, rtol=0.0)

    def test_fig9_fig10_tables_byte_identical(self, monkeypatch):
        """fig9/fig10 must render byte-identically with the default
        scheduler spelled out."""
        default_text = fig9_12_jct.run_fig9_fig10(scale=0.1).render()
        explicit_sweep = Sweep(
            fig9_12_jct.FIG9_SWEEP.base.replace(
                scheduler="splitwise+shortest_queue"),
            axes=fig9_12_jct.FIG9_SWEEP.axes,
        )
        monkeypatch.setattr(fig9_12_jct, "FIG9_SWEEP", explicit_sweep)
        explicit_text = fig9_12_jct.run_fig9_fig10(scale=0.1).render()
        assert default_text == explicit_text


class TestPolicyGrammar:
    def test_single_dispatch(self):
        spec = SchedulerSpec.parse("round_robin")
        assert spec.dispatch.kind == "round_robin"
        assert spec.placement is None
        assert spec.canonical() == "round_robin"

    def test_single_placement(self):
        spec = SchedulerSpec.parse("best_fit")
        assert spec.dispatch is None
        assert spec.placement.kind == "best_fit"
        assert spec.canonical() == "best_fit"

    def test_pair_canonical_order(self):
        # Canonical form puts dispatch first regardless of input order.
        assert SchedulerSpec.canonical_of("best_fit+round_robin") == \
            "round_robin+best_fit"
        assert SchedulerSpec.canonical_of("round_robin+best_fit") == \
            "round_robin+best_fit"

    def test_params_round_trip(self):
        text = SchedulerSpec.canonical_of("random?seed=7")
        assert text == "random?seed=7.0"
        assert SchedulerSpec.canonical_of(text) == text

    def test_default_spec_canonical(self):
        assert SchedulerSpec().canonical() == "splitwise+shortest_queue"

    def test_unknown_policy(self):
        with pytest.raises(ValueError, match="unknown scheduling policy"):
            SchedulerSpec.parse("warp")

    def test_typo_suggestion(self):
        with pytest.raises(ValueError, match="splitwise"):
            SchedulerSpec.parse("splitwize")

    def test_two_dispatch_policies_rejected(self):
        with pytest.raises(ValueError, match="two dispatch"):
            SchedulerSpec.parse("splitwise+round_robin")

    def test_two_placement_policies_rejected(self):
        with pytest.raises(ValueError, match="two placement"):
            SchedulerSpec.parse("best_fit+no_swap")

    def test_bad_parameter(self):
        with pytest.raises(ValueError, match="no parameter"):
            SchedulerSpec.parse("random?foo=1")
        with pytest.raises(ValueError, match="bad policy parameter"):
            SchedulerSpec.parse("random?seed")

    def test_param_validation(self):
        with pytest.raises(ValueError, match="seed"):
            SchedulerSpec.parse("random?seed=-1")
        with pytest.raises(ValueError, match="seed"):
            SchedulerSpec.parse("random?seed=1.5")

    def test_wrong_role_slot_rejected(self):
        with pytest.raises(ValueError, match="dispatch slot"):
            SchedulerSpec(dispatch=PolicySpec("placement", "best_fit"))

    def test_split_scheduler_list(self):
        assert split_list(
            "splitwise,random?seed=3+no_swap,least_work"
        ) == ["splitwise", "random?seed=3+no_swap", "least_work"]
        # A key=value token after an open ? clause continues the clause.
        assert split_list("random?seed=3,best_fit") == \
            ["random?seed=3", "best_fit"]


class TestScenarioPlumbing:
    def test_scheduler_round_trips(self):
        s = Scenario(scheduler="round_robin+best_fit")
        assert Scenario.from_json(s.to_json()).scheduler == \
            "round_robin+best_fit"
        assert "scheduler=round_robin+best_fit" in s.describe()

    def test_defaulted_scenario_serializes_as_before(self):
        assert "scheduler" not in Scenario().to_dict()

    def test_unknown_policy_string_kept_verbatim(self):
        s = Scenario(scheduler="my_custom_policy?knob=2")
        assert s.scheduler == "my_custom_policy?knob=2"
        with pytest.raises(ValueError, match="unknown scheduling policy"):
            Runner().run(s.replace(n_requests=10))

    def test_known_policy_with_bad_params_rejected(self):
        with pytest.raises(ValueError, match="no parameter"):
            Scenario(scheduler="random?foo=3")

    def test_sweep_axis(self):
        sweep = Sweep(Scenario(methods=("baseline",)),
                      axes={"scheduler": ("splitwise",
                                          "round_robin+best_fit")})
        expanded = sweep.expand()
        assert [s.scheduler for s in expanded] == \
            ["splitwise", "round_robin+best_fit"]

    def test_scheduler_spec_object_canonicalized(self):
        s = Scenario(scheduler=SchedulerSpec(
            dispatch=PolicySpec("dispatch", "nic_aware")))
        assert s.scheduler == "nic_aware"

    def test_cluster_config_coerces_grammar_strings(self):
        config = ClusterConfig(model=L, method=get_method("hack"),
                               prefill_gpu="A10G", n_prefill_replicas=2,
                               n_decode_replicas=1,
                               scheduler="round_robin+no_swap")
        assert isinstance(config.scheduler, SchedulerSpec)
        assert config.scheduler.canonical() == "round_robin+no_swap"
        with pytest.raises(ValueError, match="unknown scheduling policy"):
            ClusterConfig(model=L, method=get_method("hack"),
                          prefill_gpu="A10G", n_prefill_replicas=2,
                          n_decode_replicas=1, scheduler="warp")


class TestHeterogeneousFleets:
    def test_fleet_grammar(self):
        assert parse_fleet_spec("A10G") == (("A10G", None),)
        assert parse_fleet_spec("a10g+t4") == (("A10G", None), ("T4", None))
        assert parse_fleet_spec("A10G:2+T4:4") == (("A10G", 2), ("T4", 4))
        with pytest.raises(ValueError, match="repeats"):
            parse_fleet_spec("A10G+A10G:2")
        with pytest.raises(ValueError, match="count"):
            parse_fleet_spec("A10G:0")
        with pytest.raises(ValueError, match="count"):
            parse_fleet_spec("A10G:x")
        with pytest.raises(ValueError, match="choose from .*'V100'"):
            parse_fleet_spec("A10G+Z80")

    def test_default_cluster_mixed_fleet(self):
        config = default_cluster(L, get_method("hack"), "A10G+T4")
        # §7.1 defaults: ten g5.12xlarge → 5 replicas, sixteen
        # g4dn.12xlarge → 4 replicas (TP4·PP4 on T4).
        assert config.prefill_fleets == (("A10G", 5), ("T4", 4))
        assert config.n_prefill_replicas == 9
        assert config.prefill_gpu == "A10G:5+T4:4"

    def test_explicit_replica_counts(self):
        config = default_cluster(L, get_method("hack"), "A10G:2+T4:3")
        assert config.prefill_fleets == (("A10G", 2), ("T4", 3))
        assert config.n_prefill_replicas == 5

    def test_single_fleet_unchanged_shape(self):
        config = default_cluster(L, get_method("hack"), "A10G")
        assert config.prefill_fleets is None
        assert config.prefill_gpu == "A10G"

    def test_instances_override_rejected_for_fleets(self):
        with pytest.raises(ValueError, match="n_prefill_instances"):
            default_cluster(L, get_method("hack"), "A10G+T4",
                            n_prefill_instances=4)
        # …and for an explicit replica count, which it would otherwise
        # silently lose against.
        with pytest.raises(ValueError, match="n_prefill_instances"):
            default_cluster(L, get_method("hack"), "A10G:3",
                            n_prefill_instances=7)

    def test_prefill_replica_ambiguous_on_mixed_fleet(self):
        config = default_cluster(L, get_method("hack"), "A10G+T4")
        with pytest.raises(ValueError, match="ambiguous"):
            config.prefill_replica()
        # Homogeneous configs keep the historical behaviour.
        single = default_cluster(L, get_method("hack"), "A10G")
        assert single.prefill_replica().mem_gb > 0

    def test_misbehaving_placement_policy_caught(self):
        """A custom policy returning a sentinel index or ignoring the
        reservation must fail loudly, not over-commit memory."""
        from repro.sim.engine import Simulator

        config = default_cluster(L, get_method("hack"), "A10G")
        trace = generate_trace("cocktail", 0.5, 5, seed=0)

        class BadIndex:
            name, swap_on_full = "bad_index", True
            def choose(self, now, req, replicas, reserve):
                return -1

        sim = Simulator(config, trace)
        sim.placement = BadIndex()
        with pytest.raises(ValueError, match="bad_index"):
            sim.run()

        class NoRoom:
            name, swap_on_full = "no_room", True
            def choose(self, now, req, replicas, reserve):
                return max(range(len(replicas)),
                           key=lambda i: -replicas[i].free_bytes())

        scarce = default_cluster(L, get_method("baseline"), "A10G",
                                 n_decode_instances=1,
                                 activation_overhead=1.19)
        sim = Simulator(scarce, generate_trace("cocktail", 1.0, 5, seed=3))
        sim.placement = NoRoom()
        with pytest.raises(ValueError, match="without room"):
            sim.run()

    def test_replica_override_rejected_for_fleets(self):
        scenario = Scenario(methods=("baseline",), prefill_gpu="A10G+T4",
                            n_prefill_replicas=3, n_requests=10)
        with pytest.raises(ValueError, match="fleet"):
            Runner().run(scenario)

    def test_config_fleet_total_validated(self):
        with pytest.raises(ValueError, match="summed fleet counts"):
            ClusterConfig(model=L, method=get_method("hack"),
                          prefill_gpu="A10G:1+T4:1",
                          n_prefill_replicas=5, n_decode_replicas=1,
                          prefill_fleets=(("A10G", 1), ("T4", 1)))

    def test_capacity_sums_over_fleets(self):
        ds = get_dataset("cocktail")
        a10g = stage_capacities(
            default_cluster(L, get_method("baseline"), "A10G:5"), ds)
        t4 = stage_capacities(
            default_cluster(L, get_method("baseline"), "T4:4"), ds)
        both = stage_capacities(
            default_cluster(L, get_method("baseline"), "A10G:5+T4:4"), ds)
        assert both[0] == pytest.approx(a10g[0] + t4[0], rel=1e-12)
        assert both[1] == pytest.approx(a10g[1] + t4[1], rel=1e-12)
        assert both[2] == pytest.approx(a10g[2], rel=1e-12)  # decode shared

    @pytest.mark.parametrize("scheduler",
                             ("splitwise", "round_robin", "least_work"))
    def test_no_replica_starvation(self, scheduler):
        """Every replica of a mixed fleet serves work — a dispatch
        policy that funnels everything to one fleet would be useless."""
        config = default_cluster(L, get_method("hack"), "A10G+T4",
                                 scheduler=scheduler)
        rate = capacity_rps(config, get_dataset("cocktail")) * 1.05
        trace = generate_trace("cocktail", rate, 60, seed=1)
        res = simulate(config, trace)
        used = {r.prefill_replica for r in res.requests}
        assert used == set(range(config.n_prefill_replicas))

    @pytest.mark.parametrize("method", ("baseline", "hack"))
    def test_span_matches_token_on_mixed_fleet(self, method):
        token = _cell(method, "token", gpu="A10G+T4")
        span = _cell(method, "span", gpu="A10G+T4")
        _assert_equivalent(token, span)


class TestNoSwapPlacement:
    def _scarce_config(self, activation_overhead=1.1, **kwargs):
        # One decode instance and a fat activation reservation leave
        # little KV room: most FP16 baseline KV spills.
        return default_cluster(L, get_method("baseline"), "A10G",
                               n_decode_instances=1,
                               activation_overhead=activation_overhead,
                               **kwargs)

    def test_rejects_surface_in_counts(self):
        config = self._scarce_config(scheduler="splitwise+no_swap")
        trace = generate_trace("cocktail", 1.0, 30, seed=2)
        res = simulate(config, trace)
        assert res.n_rejected > 0
        assert len(res.requests) == 30 - res.n_rejected
        assert res.n_swapped == 0
        assert res.summary()["n_rejected"] == res.n_rejected

    def test_swap_default_under_same_pressure(self):
        config = self._scarce_config()
        trace = generate_trace("cocktail", 1.0, 30, seed=2)
        res = simulate(config, trace)
        assert res.n_rejected == 0
        assert res.n_swapped > 0
        assert len(res.requests) == 30

    def test_all_rejected_yields_empty_but_valid_summary(self):
        # At this reservation no cocktail request's KV fits anywhere.
        config = self._scarce_config(scheduler="no_swap",
                                     activation_overhead=1.19)
        trace = generate_trace("cocktail", 1.0, 8, seed=3)
        res = simulate(config, trace)
        assert res.requests == []
        assert res.n_rejected == 8
        summary = res.summary()
        assert summary["n_requests"] == 0
        assert summary["avg_jct_s"] == 0.0
        assert summary["slo_goodput_rps"] == 0.0
        text = json.dumps(summary, allow_nan=False)   # no Infinity/NaN
        assert json.loads(text)["n_rejected"] == 8


class TestEmptyAggregates:
    """mean_decomposition/mean_ratios/summary &co on an empty result."""

    @pytest.fixture(scope="class")
    def empty(self):
        config = default_cluster(L, get_method("baseline"), "A10G")
        return SimulationResult(requests=[], peak_memory_fraction=0.65,
                                n_swapped=0, config=config, n_rejected=4)

    def test_zero_filled_decomposition(self, empty):
        assert empty.mean_decomposition() == {b: 0.0 for b in BUCKETS}

    def test_mean_ratios(self, empty):
        assert empty.mean_ratios() == \
            {b: 0.0 for b in BUCKETS if b != "queue"}
        assert empty.mean_ratios(include_queue=True) == \
            {b: 0.0 for b in BUCKETS}

    def test_scalar_aggregates(self, empty):
        assert empty.avg_jct() == 0.0
        assert empty.makespan_s() == 0.0
        assert empty.slo_attainment() == 0.0
        assert empty.slo_goodput_rps() == 0.0
        assert empty.mean_kv_access_ratio() == 0.0
        assert empty.mean_normalized_latency() == 0.0
        assert empty.summary()["p99_jct_s"] == 0.0
        assert empty.generated_tokens() == 0

    def test_summary_json_round_trips(self, empty):
        text = json.dumps(empty.summary(), allow_nan=False)
        assert json.loads(text)["n_requests"] == 0


class TestGoodputRegression:
    def test_zero_makespan_goodput_is_zero_not_inf(self):
        """A degenerate single-instant run used to emit float('inf'),
        which json.dump writes as non-compliant ``Infinity``."""
        config = default_cluster(L, get_method("baseline"), "A10G")
        req = SimRequest(trace=TraceRequest(0, 5.0, 4, 1))
        req.prefill_start = req.prefill_end = req.finish = 5.0
        res = SimulationResult(requests=[req], peak_memory_fraction=0.5,
                               n_swapped=0, config=config)
        assert res.makespan_s() == 0.0
        assert res.slo_goodput_rps() == 0.0
        summary = res.summary()
        text = json.dumps(summary, allow_nan=False)
        assert "Infinity" not in text
        assert json.loads(text)["slo_goodput_rps"] == 0.0


class TestCapacityClipping:
    @pytest.mark.parametrize("dataset", sorted(GOLDEN_CAPACITIES))
    def test_default_datasets_pinned(self, dataset):
        """Datasets that fit the model context are untouched by the
        clipping alignment."""
        config = default_cluster(L, get_method("baseline"), "A10G")
        got = stage_capacities(config, get_dataset(dataset))
        assert got == pytest.approx(GOLDEN_CAPACITIES[dataset], rel=1e-12)

    def test_clipped_means_match_trace_clipping(self):
        """Capacity now sizes for the lengths the trace actually
        replays: outputs truncated to max_context-1 first, inputs to
        the remaining window."""
        arxiv = get_dataset("arxiv")
        mean_in, mean_out = clipped_mean_lengths(arxiv, 2048)
        assert mean_out == 243                 # untouched (243 < 2047)
        assert mean_in == 2048 - 243           # not 2047
        assert mean_in + mean_out <= 2048

    def test_falcon_capacity_rises_with_shorter_prompts(self):
        """Pre-fix, Falcon-2K/arXiv capacity was computed at a 2047-token
        prompt the trace never replays; the aligned 1805-token prompt
        sustains a higher rate (pre-fix bottleneck was 2.497 rps)."""
        F = get_model("F")
        config = default_cluster(F, get_method("baseline"), "A10G")
        prefill, nic, decode = stage_capacities(config,
                                                get_dataset("arxiv"))
        assert prefill > 2.6
        assert min(prefill, nic, decode) == prefill


class TestTraceClipCounts:
    def test_no_cap_no_counts(self):
        trace = generate_trace("cocktail", 1.0, 20, seed=0)
        assert trace.n_input_clipped == 0
        assert trace.n_output_clipped == 0

    def test_input_clipping_counted(self):
        trace = generate_trace("arxiv", 1.0, 50, seed=0, max_context=2048)
        assert trace.n_input_clipped > 0
        assert trace.n_output_clipped == 0     # arXiv outputs max 464
        assert all(r.input_len + r.output_len <= 2048 for r in trace)

    def test_output_clipping_counted(self):
        """Outputs are truncated too — the docstring used to claim only
        inputs were clipped."""
        trace = generate_trace("arxiv", 1.0, 50, seed=0, max_context=300)
        assert trace.n_output_clipped > 0
        assert all(r.output_len <= 299 for r in trace)
        assert all(r.input_len + r.output_len <= 300 for r in trace)

    def test_merge_sums_counts(self):
        a = generate_trace("arxiv", 1.0, 20, seed=0, max_context=2048)
        b = generate_trace("cocktail", 1.0, 20, seed=1, max_context=10000)
        merged = merge_traces(a, b)
        assert merged.n_input_clipped == \
            a.n_input_clipped + b.n_input_clipped
        assert merged.n_output_clipped == \
            a.n_output_clipped + b.n_output_clipped

    def test_resolved_scenario_reports_counts(self):
        from repro.api.runner import resolve
        resolved = resolve(Scenario(model="F", dataset="arxiv",
                                    methods=("baseline",), n_requests=20))
        assert resolved.max_context == 2048
        assert resolved.n_input_clipped > 0


class TestSchedExperiment:
    """`run sched`: the policy × arrival × method grid."""

    @pytest.fixture(scope="class")
    def study(self):
        from repro.experiments import scheduling
        return scheduling.run(scale=0.04)

    def test_full_grid(self, study):
        from repro.experiments.scheduling import ARRIVALS, METHODS, \
            SCHEDULERS
        assert len(study.results) == len(SCHEDULERS) * len(ARRIVALS)
        assert len(study.table.rows) == \
            len(SCHEDULERS) * len(ARRIVALS) * len(METHODS)
        # ≥ 2 arrival processes per acceptance criteria, and the
        # module constants (written pre-canonicalized) index the
        # results directly.
        assert len(ARRIVALS) >= 2
        for scheduler in SCHEDULERS:
            for arrival in ARRIVALS:
                assert (scheduler, arrival) in study.results

    def test_hack_leads_under_every_policy(self, study):
        """Scheduling must not explain the compression gap away."""
        for cell in study.results.values():
            assert cell["hack"].avg_jct() < cell["baseline"].avg_jct()

    def test_renders(self, study):
        text = study.render()
        assert "Scheduling policies" in text
        assert "rejected" in text
