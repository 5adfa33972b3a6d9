"""Differential tests: span fast-forwarding vs legacy token stepping.

The span engine advances whole runs of decode iterations with
closed-form latency sums; these tests pin it to the token path —
per-request, per-bucket, across every registered method, with
pipelining on and off and through the CPU-swap path — to 1e-9 relative
tolerance, plus a golden check that the rendered fig9/fig10 tables are
byte-identical between the two modes.
"""

import math

import pytest

from repro.api import Runner, Scenario, Sweep
from repro.experiments import fig9_12_jct
from repro.methods import get_method
from repro.methods.registry import METHODS
from repro.model import get_model
from repro.sim import capacity_rps, default_cluster, simulate
from repro.workload import generate_trace, get_dataset

L = get_model("L")
RTOL = 1e-9


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=RTOL, abs_tol=1e-12)


def _run_both(method: str, n: int = 30, seed: int = 0, rps: float = None,
              dataset: str = "cocktail", **cfg_kwargs):
    results = {}
    for mode in ("token", "span"):
        config = default_cluster(L, get_method(method), "A10G",
                                 step_mode=mode, **cfg_kwargs)
        rate = rps if rps is not None else \
            capacity_rps(config, get_dataset(dataset)) * 1.05
        trace = generate_trace(dataset, rate, n, seed=seed)
        results[mode] = simulate(config, trace)
    return results["token"], results["span"]


def _assert_equivalent(token, span):
    """Every §7 metric the paper reports must agree between modes."""
    assert token.n_swapped == span.n_swapped
    assert _close(token.peak_memory_fraction, span.peak_memory_fraction)
    assert _close(token.avg_jct(), span.avg_jct())
    token_summary, span_summary = token.summary(), span.summary()
    for p in (50, 95, 99):
        key = f"p{p}_jct_s"
        assert _close(token_summary[key], span_summary[key])
    assert len(token.requests) == len(span.requests)
    for rt, rs in zip(token.requests, span.requests):
        assert rt.request_id == rs.request_id
        assert rt.tokens_generated == rs.tokens_generated
        assert rt.swapped == rs.swapped
        assert _close(rt.jct, rs.jct)
        dt, ds = rt.decomposition(), rs.decomposition()
        for bucket in dt:
            assert _close(dt[bucket], ds[bucket]), \
                f"request {rt.request_id} bucket {bucket}: " \
                f"{dt[bucket]} vs {ds[bucket]}"


class TestDifferentialAllMethods:
    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_span_matches_token(self, method):
        token, span = _run_both(method)
        _assert_equivalent(token, span)


class TestDifferentialRegimes:
    @pytest.mark.parametrize("method", ("baseline", "hack"))
    def test_pipelining(self, method):
        token, span = _run_both(method, pipelining=True)
        _assert_equivalent(token, span)

    @pytest.mark.parametrize("method", ("baseline", "hack"))
    def test_swap_path(self, method):
        """Scarce decode memory forces the §5.1 CPU-swap detour; swap
        admissions re-enter decode mid-stream and must interrupt spans
        identically in both modes."""
        token, span = _run_both(method, n=80, seed=2, rps=2.0,
                                n_decode_instances=1,
                                n_prefill_instances=40)
        if method == "baseline":          # compressed KV fits; FP16 spills
            assert token.n_swapped > 0
        _assert_equivalent(token, span)

    def test_single_decode_replica_high_load(self):
        """Many concurrent joins/finishes per replica — maximum span
        interrupt pressure."""
        token, span = _run_both("hack", n=60, seed=5, rps=3.0,
                                n_decode_instances=1)
        _assert_equivalent(token, span)

    def test_short_output_dataset(self):
        """Output lengths near 1 give degenerate (k=1) spans."""
        token, span = _run_both("baseline", dataset="imdb", rps=2.0)
        _assert_equivalent(token, span)


class TestGoldenRendering:
    def test_fig9_fig10_tables_byte_identical(self, monkeypatch):
        """The rendered fig9/fig10 artifact must not change at table
        precision when the fast path replaces token stepping."""
        span_text = fig9_12_jct.run_fig9_fig10(scale=0.1).render()
        token_sweep = Sweep(
            fig9_12_jct.FIG9_SWEEP.base.replace(step_mode="token"),
            axes=fig9_12_jct.FIG9_SWEEP.axes,
        )
        monkeypatch.setattr(fig9_12_jct, "FIG9_SWEEP", token_sweep)
        token_text = fig9_12_jct.run_fig9_fig10(scale=0.1).render()
        assert span_text == token_text


class TestScenarioPlumbing:
    def test_step_mode_round_trips(self):
        s = Scenario(step_mode="token")
        assert Scenario.from_json(s.to_json()).step_mode == "token"
        assert "step_mode=token" in s.describe()

    def test_invalid_step_mode_rejected(self):
        with pytest.raises(ValueError):
            Scenario(step_mode="warp")
        with pytest.raises(ValueError):
            default_cluster(L, get_method("baseline"), "A10G",
                            step_mode="warp")

    def test_runner_records_throughput(self):
        art = Runner().run(Scenario(methods=("baseline",), n_requests=15,
                                    step_mode="span"))
        perf = art.perf["baseline"]
        assert perf["step_mode"] == "span"
        assert perf["simulated_tokens"] == \
            art.results["baseline"].generated_tokens()
        assert perf["tokens_per_s"] > 0
