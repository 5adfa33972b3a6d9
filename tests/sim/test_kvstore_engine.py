"""KV-store engine integration: differential span==token coverage
across hit/miss/eviction regimes, the what-the-store-buys semantics,
and the golden byte-pin that the store-less default path is untouched.
"""

import hashlib
import math

import pytest

from repro.experiments import fig9_12_jct
from repro.methods import get_method
from repro.model import get_model
from repro.sim import capacity_rps, default_cluster, simulate
from repro.workload import generate_trace, get_dataset

L = get_model("L")
RTOL = 1e-9
SESSIONS = "sessions?turns=4.0,think_time=20.0,prefix_growth=0.3,tiers=3.0"

#: sha256/length of the fig9/fig10 render at scale=0.1, captured before
#: the KV-store subsystem existed.  The kvstore-disabled engine path
#: must keep reproducing it byte-for-byte.
GOLDEN_FIG9_SHA256 = \
    "ef48fb90f3caf7231816c6071fbff499d9a3ff229d1bc7556bb433faa6318072"
GOLDEN_FIG9_LEN = 2669


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=RTOL, abs_tol=1e-12)


def _trace(n=50, seed=4, rps=2.0, arrival=SESSIONS, dataset="cocktail"):
    return generate_trace(dataset, rps, n, seed=seed, arrival=arrival)


def _run_both(method="hack", trace=None, **cfg_kwargs):
    trace = trace if trace is not None else _trace()
    results = {}
    for mode in ("token", "span"):
        config = default_cluster(L, get_method(method), "A10G",
                                 step_mode=mode, **cfg_kwargs)
        results[mode] = simulate(config, trace)
    return results["token"], results["span"]


def _assert_equivalent(token, span):
    assert _close(token.avg_jct(), span.avg_jct())
    token_summary, span_summary = token.summary(), span.summary()
    for p in (50, 95, 99):
        key = f"p{p}_jct_s"
        assert _close(token_summary[key], span_summary[key])
    assert token.kvstore_stats == span.kvstore_stats
    assert token.selection_mix == span.selection_mix
    assert len(token.requests) == len(span.requests)
    for rt, rs in zip(token.requests, span.requests):
        assert rt.request_id == rs.request_id
        assert rt.prefix_hit_tokens == rs.prefix_hit_tokens
        assert rt.cache_tier == rs.cache_tier
        assert _close(rt.cache_read_s, rs.cache_read_s)
        assert (rt.method.name if rt.method else None) == \
            (rs.method.name if rs.method else None)
        assert _close(rt.jct, rs.jct)
        dt, ds = rt.decomposition(), rs.decomposition()
        for bucket in dt:
            assert _close(dt[bucket], ds[bucket]), \
                f"request {rt.request_id} bucket {bucket}"


class TestDifferential:
    def test_warm_hits(self):
        token, span = _run_both(kvstore="tiered?dram_gb=8.0")
        assert token.kvstore_stats["hit_rate"] > 0
        _assert_equivalent(token, span)

    def test_all_miss_single_shot(self):
        token, span = _run_both(trace=_trace(n=30, arrival="poisson"),
                                kvstore="tiered?dram_gb=8.0")
        assert token.kvstore_stats["hit_rate"] == 0.0
        _assert_equivalent(token, span)

    def test_eviction_churn_and_expiry(self):
        token, span = _run_both(
            trace=_trace(n=80, seed=9),
            kvstore="tiered?hbm_gb=0.05,dram_gb=0.2,pool_gb=0.5"
                    "+ttl?seconds=60.0")
        stats = token.kvstore_stats
        churn = sum(t["evictions"] for t in stats["tiers"].values())
        assert churn > 0 and stats["dropped"] + stats["expired"] > 0
        _assert_equivalent(token, span)

    @pytest.mark.parametrize("selection", [
        "slo_tier", "congestion?hi=0.6,lo=0.3"])
    def test_with_selection_policies(self, selection):
        token, span = _run_both(kvstore="tiered?dram_gb=8.0",
                                selection=selection)
        _assert_equivalent(token, span)

    def test_selection_without_store(self):
        token, span = _run_both(selection="slo_tier")
        assert token.kvstore_stats is None
        assert set(token.selection_mix) == {"0", "1", "2"}
        _assert_equivalent(token, span)


class TestSemantics:
    def test_warm_store_cuts_ttft_on_sessions(self):
        trace = _trace(n=60, seed=2)
        cold, _ = _run_both(trace=trace)
        warm, _ = _run_both(trace=trace, kvstore="tiered?dram_gb=8.0")
        stats = warm.kvstore_stats
        assert stats["hit_rate"] > 0.3
        assert stats["prefill_tokens_skipped"] > 0
        assert warm.summary()["mean_ttft_s"] < cold.summary()["mean_ttft_s"]

    def test_hits_shrink_prefill_and_pay_comm(self):
        trace = _trace(n=60, seed=2)
        cold, _ = _run_both(trace=trace)
        warm, _ = _run_both(trace=trace, kvstore="tiered?dram_gb=8.0")
        hit = {r.request_id: r for r in warm.requests
               if r.prefix_hit_tokens > 0}
        assert hit
        cold_by_id = {r.request_id: r for r in cold.requests}
        for rid, r in hit.items():
            assert r.cache_read_s > 0 and r.cache_tier is not None
            assert r.prefix_hit_tokens < r.trace.input_len
            assert r.prefill_s < cold_by_id[rid].prefill_s

    def test_miss_records_stay_unmarked(self):
        warm, _ = _run_both(trace=_trace(n=30, arrival="poisson"),
                            kvstore="tiered?dram_gb=8.0")
        for r in warm.requests:
            assert r.prefix_hit_tokens == 0
            assert r.cache_read_s == 0.0 and r.cache_tier is None
            rec = r.record()
            assert rec["method_selected"] == "hack"

    def test_disabled_runs_carry_no_kv_keys(self):
        plain, _ = _run_both(trace=_trace(n=20, arrival="poisson"))
        assert plain.kvstore_stats is None
        assert plain.selection_mix is None
        summary = plain.summary()
        assert "kvstore" not in summary and "selection_mix" not in summary
        rec = plain.requests[0].record()
        assert "method_selected" not in rec
        assert "prefix_hit_tokens" not in rec

    def test_selection_governs_wire_bytes(self):
        """slo_tier sends class-0 traffic as FP16 baseline: those
        requests' NIC transfers must dwarf their compressed peers'."""
        trace = _trace(n=40, seed=6)
        res, _ = _run_both(kvstore="tiered?dram_gb=8.0",
                           selection="slo_tier", trace=trace)
        mix = res.selection_mix
        assert mix["0"] == {"baseline": sum(mix["0"].values())}
        by_method = {}
        for r in res.requests:
            if r.prefix_hit_tokens == 0 and r.trace.input_len > 0:
                by_method.setdefault(r.method.name, []).append(
                    r.comm_s / r.trace.input_len)
        if "baseline" in by_method and "hack" in by_method:
            assert min(by_method["baseline"]) > max(by_method["hack"])

    def test_summary_surfaces_kvstore_sections(self):
        res, _ = _run_both(kvstore="tiered?dram_gb=8.0",
                           selection="slo_tier")
        summary = res.summary()
        assert summary["kvstore"]["hit_rate"] == \
            res.kvstore_stats["hit_rate"]
        assert set(summary["kvstore"]["tiers"]) == {"hbm", "dram", "pool"}
        assert summary["selection_mix"] == res.selection_mix


class TestGolden:
    def test_fig9_fig10_byte_identical_without_kvstore(self):
        """The no-kvstore default path renders the pre-subsystem golden
        tables byte-for-byte."""
        text = fig9_12_jct.run_fig9_fig10(scale=0.1).render()
        assert len(text) == GOLDEN_FIG9_LEN
        assert hashlib.sha256(text.encode()).hexdigest() == \
            GOLDEN_FIG9_SHA256

    def test_capacity_planning_ignores_kvstore(self):
        """Configuring a store must not move baseline capacity (rates
        derive from prefill/NIC/decode, never the cache)."""
        plain = default_cluster(L, get_method("hack"), "A10G")
        stored = default_cluster(L, get_method("hack"), "A10G",
                                 kvstore="tiered?dram_gb=8.0")
        dataset = get_dataset("cocktail")
        assert capacity_rps(plain, dataset) == \
            capacity_rps(stored, dataset)
