"""Engine integration of fault injection and recovery.

Three layers of guarantees:

* the recovery policy only acts on faults — configuring one without
  a fault plan changes nothing, byte for byte;
* under active fault timelines the span fast-forward engine still
  matches the token engine to 1e-9, for every shipped fault family ×
  recovery policy, on both the baseline and HACK methods (crashes
  interrupt spans, transfers and KV-store reads mid-flight);
* reliability accounting is conserved: every trace request ends in
  exactly one of finished/rejected/failed, and the summary's fault
  block agrees with the per-request records.
"""

import math

import pytest

from repro.methods import get_method
from repro.model import get_model
from repro.sim import capacity_rps, default_cluster, simulate
from repro.workload import generate_trace, get_dataset

L = get_model("L")
RTOL = 1e-9

#: Session arrivals give the store real prefix reuse, so KV-aided
#: recovery and dark-tier misses are actually exercised.
SESSIONS = "sessions?turns=4.0,think_time=10.0,prefix_growth=0.3,tiers=3.0"

#: One aggressive plan per shipped family, timed to fire inside the
#: short test traces.
FAMILY_PLANS = {
    "replica_crash": "replica_crash?mttf=30.0,mttr=6.0",
    "nic_degrade": "nic_degrade?factor=0.2,start=4.0,duration=40.0",
    "transfer_flap": "transfer_flap?p_fail=0.15",
    "kvstore_outage": "kvstore_outage?tier=hbm,start=4.0,duration=40.0",
}

RECOVERIES = ("none", "retry?base_s=0.5,cap_s=4.0,max=3.0", "migrate")


def _config(method="hack", mode="span", faults=None, recovery=None,
            **cfg_kwargs):
    if faults and "kvstore_outage" in faults:
        cfg_kwargs.setdefault("kvstore", "tiered?dram_gb=8.0")
    return default_cluster(L, get_method(method), "A10G", step_mode=mode,
                           faults=faults, recovery=recovery, **cfg_kwargs)


def _trace(n=24, seed=0, dataset="cocktail", rps=None, arrival="poisson",
           config=None):
    rate = rps if rps is not None else \
        capacity_rps(config, get_dataset(dataset)) * 1.05
    return generate_trace(dataset, rate, n, seed=seed, arrival=arrival)


def _run(method="hack", mode="span", faults=None, recovery=None, n=24,
         seed=0, dataset="cocktail", rps=None, arrival="poisson",
         **cfg_kwargs):
    config = _config(method, mode, faults, recovery, **cfg_kwargs)
    trace = _trace(n, seed, dataset, rps, arrival, config=config)
    return simulate(config, trace)


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=RTOL, abs_tol=1e-12)


def _assert_equivalent(token, span):
    """Both engines must agree on every terminal request."""
    for attr in ("requests", "rejected_requests", "failed_requests"):
        assert [r.request_id for r in getattr(token, attr)] == \
            [r.request_id for r in getattr(span, attr)], attr
    for rt, rs in zip(token.terminal_requests(), span.terminal_requests()):
        assert rt.terminal == rs.terminal
        assert rt.n_retries == rs.n_retries
        assert _close(rt.wasted_compute_s, rs.wasted_compute_s), \
            f"request {rt.request_id} wasted: " \
            f"{rt.wasted_compute_s} vs {rs.wasted_compute_s}"
        if rt.done:
            assert rt.tokens_generated == rs.tokens_generated
            assert _close(rt.jct, rs.jct), \
                f"request {rt.request_id} jct: {rt.jct} vs {rs.jct}"
            dt, ds = rt.decomposition(), rs.decomposition()
            for bucket in dt:
                assert _close(dt[bucket], ds[bucket]), \
                    f"request {rt.request_id} bucket {bucket}: " \
                    f"{dt[bucket]} vs {ds[bucket]}"
    assert _close(token.wasted_compute_s(), span.wasted_compute_s())
    assert _close(token.availability(), span.availability())


class TestNoFaultByteIdentity:
    def test_recovery_without_faults_changes_nothing(self):
        plain = _run(faults=None, recovery=None)
        armed = _run(faults=None, recovery="retry?max=5.0")
        assert plain.to_records() == armed.to_records()
        assert plain.summary() == armed.summary()

    def test_unfaulted_result_reports_no_fault_block(self):
        res = _run(faults=None)
        assert not res.faulted
        assert "faults" not in res.summary()
        assert res.summary()["n_failed"] == 0
        assert res.availability() == 1.0
        assert res.wasted_compute_s() == 0.0

    def test_far_future_faults_keep_results_identical(self):
        """An armed plan whose events all land after the run must not
        perturb a single metric (only add the accounting block)."""
        plain = _run(faults=None)
        armed = _run(faults="nic_degrade?start=1e9,duration=1.0")
        assert armed.faulted
        assert plain.to_records() == armed.to_records()
        summary = armed.summary()
        assert summary["faults"]["availability"] == 1.0
        assert summary["faults"]["wasted_compute_s"] == 0.0
        summary.pop("faults")
        assert summary == plain.summary()


class TestDifferentialUnderFaults:
    """span == token to 1e-9 under every family × recovery policy."""

    @pytest.mark.parametrize("recovery", RECOVERIES)
    @pytest.mark.parametrize("family", sorted(FAMILY_PLANS))
    def test_hack_all_combinations(self, family, recovery):
        kwargs = dict(faults=FAMILY_PLANS[family], recovery=recovery,
                      seed=3)
        if family == "kvstore_outage":
            kwargs["arrival"] = SESSIONS
        token = _run(mode="token", **kwargs)
        span = _run(mode="span", **kwargs)
        _assert_equivalent(token, span)

    @pytest.mark.parametrize("family", sorted(FAMILY_PLANS))
    def test_baseline_with_retry(self, family):
        kwargs = dict(method="baseline", faults=FAMILY_PLANS[family],
                      recovery="retry?base_s=0.5,cap_s=4.0", seed=5)
        if family == "kvstore_outage":
            kwargs["arrival"] = SESSIONS
        token = _run(mode="token", **kwargs)
        span = _run(mode="span", **kwargs)
        _assert_equivalent(token, span)

    def test_prefill_crash(self):
        """Crashes on the prefill side kill queued batches and in-flight
        transfers sourced from the dead replica."""
        for method in ("baseline", "hack"):
            kwargs = dict(method=method, seed=7,
                          faults="replica_crash?mttf=25.0,mttr=5.0,"
                                 "role=prefill,replicas=2.0",
                          recovery="retry?base_s=0.5,cap_s=4.0")
            token = _run(mode="token", **kwargs)
            span = _run(mode="span", **kwargs)
            _assert_equivalent(token, span)

    def test_compound_plan(self):
        kwargs = dict(seed=11,
                      faults="replica_crash?mttf=30.0,mttr=6.0"
                             "+transfer_flap?p_fail=0.1"
                             "+nic_degrade?factor=0.5,start=8.0,"
                             "duration=30.0",
                      recovery="migrate")
        token = _run(mode="token", **kwargs)
        span = _run(mode="span", **kwargs)
        _assert_equivalent(token, span)


class TestReliabilityAccounting:
    @pytest.fixture(scope="class")
    def crashed(self):
        return _run(faults="replica_crash?mttf=20.0,mttr=5.0",
                    recovery="retry?base_s=0.5,cap_s=4.0", n=40, seed=3)

    def test_conservation(self, crashed):
        terminal = crashed.terminal_requests()
        assert len(terminal) == 40
        assert len(crashed.requests) + len(crashed.rejected_requests) \
            + len(crashed.failed_requests) == 40
        ids = [r.request_id for r in terminal]
        assert ids == sorted(set(ids))
        for r in terminal:
            assert r.terminal in ("finished", "rejected", "failed")

    def test_some_requests_recovered(self, crashed):
        recovered = [r for r in crashed.requests if r.recovered]
        assert recovered, "crash plan never interrupted a request"
        for r in recovered:
            assert r.n_retries >= 1
            assert r.done

    def test_wasted_work_positive_and_bounded(self, crashed):
        assert crashed.wasted_compute_s() > 0.0
        assert 0.0 < crashed.wasted_work_fraction() < 1.0

    def test_availability_matches_counts(self, crashed):
        avail = crashed.availability()
        assert avail == len(crashed.requests) / 40
        assert 0.0 < avail <= 1.0

    def test_summary_fault_block_consistent(self, crashed):
        block = crashed.summary()["faults"]
        assert block["availability"] == crashed.availability()
        assert block["n_failed"] == len(crashed.failed_requests)
        assert block["n_recovered"] == \
            sum(1 for r in crashed.requests if r.recovered)
        assert block["n_retries"] == \
            sum(r.n_retries for r in crashed.terminal_requests())
        assert block["wasted_compute_s"] == crashed.wasted_compute_s()
        assert block["goodput_under_faults_rps"] > 0

    def test_records_shape_by_terminal_state(self, crashed):
        for rec in crashed.to_records():
            assert rec["terminal"] in ("finished", "rejected", "failed")
            assert "n_retries" in rec and "wasted_compute_s" in rec
            if rec["terminal"] == "finished":
                assert "jct_s" in rec and "decomposition_s" in rec
            else:
                assert "jct_s" not in rec

    def test_determinism(self, crashed):
        again = _run(faults="replica_crash?mttf=20.0,mttr=5.0",
                     recovery="retry?base_s=0.5,cap_s=4.0", n=40, seed=3)
        assert again.to_records() == crashed.to_records()
        assert again.summary() == crashed.summary()


class TestRetryExhaustion:
    def test_none_policy_fails_on_first_fault(self):
        res = _run(faults="transfer_flap?p_fail=0.5", recovery="none",
                   n=30, seed=3)
        assert res.failed_requests, "flap plan never hit a transfer"
        for r in res.failed_requests:
            assert r.failed and not r.done
            assert r.n_retries == 0      # no retry was ever scheduled
        assert res.availability() < 1.0

    def test_exhausted_retry_budget_sheds_load(self):
        res = _run(faults="transfer_flap?p_fail=0.6",
                   recovery="retry?max=1.0,base_s=0.5,cap_s=1.0",
                   n=30, seed=3)
        assert res.failed_requests, "no request exhausted its budget"
        for r in res.failed_requests:
            assert r.n_retries == 1      # one retry granted, then shed
        finished_retried = [r for r in res.requests if r.n_retries]
        assert finished_retried, "no flapped request recovered"

    def test_flap_waste_is_the_lost_transfer_time(self):
        res = _run(faults="transfer_flap?p_fail=0.5", recovery="none",
                   n=30, seed=3)
        for r in res.failed_requests:
            assert r.wasted_compute_s > 0.0


class TestKVStoreUnderFaults:
    def test_outage_dark_misses_counted(self):
        # Large KV entries are evicted from the small hbm tier into
        # dram almost immediately, so a dram outage strands the warm
        # entries; requests that would have hit re-prefill instead.
        res = _run(faults="kvstore_outage?tier=dram,start=25.0,"
                          "duration=80.0",
                   arrival=SESSIONS, n=40, seed=3,
                   kvstore="tiered?dram_gb=8.0")
        stats = res.kvstore_stats
        assert stats is not None
        assert stats["dark_misses"] > 0   # warm entries went unreachable
        healthy = _run(faults=None, arrival=SESSIONS, n=40, seed=3,
                       kvstore="tiered?dram_gb=8.0")
        assert stats["hits"] < healthy.kvstore_stats["hits"]

    def test_store_aids_crash_recovery(self):
        """With a warm store, a crashed request re-fetches its whole
        prefill prefix instead of recomputing it — more tokens are
        served from cache than natural session reuse alone provides."""
        kwargs = dict(faults="replica_crash?mttf=20.0,mttr=5.0",
                      recovery="retry?base_s=0.5,cap_s=4.0",
                      arrival=SESSIONS, n=40, seed=3,
                      kvstore="tiered?dram_gb=8.0")
        faulted = _run(**kwargs)
        assert any(r.n_retries for r in faulted.terminal_requests()), \
            "crash plan never interrupted a request"
        healthy = _run(**{**kwargs, "faults": None, "recovery": None})
        extra = faulted.kvstore_stats["prefill_tokens_skipped"] - \
            healthy.kvstore_stats["prefill_tokens_skipped"]
        assert extra > 0


class TestGracefulDegradation:
    def test_capacity_signal_trips_congestion_selection(self):
        """A decode crash must push congestion selection to the cheaper
        method while replicas are down."""
        kwargs = dict(methods=None, n=40, seed=3, arrival=SESSIONS,
                      kvstore="tiered?dram_gb=8.0",
                      selection="congestion?hi=0.4,lo=0.2")
        kwargs.pop("methods")
        faulted = _run(faults="replica_crash?mttf=15.0,mttr=30.0,"
                              "replicas=3.0",
                       recovery="retry?base_s=0.5,cap_s=4.0", **kwargs)
        healthy = _run(faults=None, **kwargs)
        flips = _selection_counts(faulted)
        base = _selection_counts(healthy)
        # Crashed run: most admissions happen while replicas are down
        # (capacity signal 1/4..3/4 > hi=0.4), so selection escalates
        # to the strong method far more often than the healthy run.
        assert flips.get("hack_int4", 0) > base.get("hack_int4", 0)


def _selection_counts(res):
    counts = {}
    for r in res.terminal_requests():
        name = r.method.name if r.method is not None else "default"
        counts[name] = counts.get(name, 0) + 1
    return counts
