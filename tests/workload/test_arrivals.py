"""Tests for repro.workload.arrivals — pluggable arrival processes."""

import numpy as np
import pytest

from repro.workload import (
    ArrivalParam,
    ArrivalProcess,
    ArrivalSpec,
    arrival_processes,
    generate_trace,
    merge_traces,
    register_arrival,
)
from repro.spec import split_list

BUILTINS = ("constant", "poisson", "gamma", "mmpp", "diurnal")

#: One representative non-default spec per family.
SPECS = (
    "constant",
    "poisson",
    "gamma?cv=3.0",
    "mmpp?burst=4.0,duty=0.2,dwell=10.0",
    "diurnal?amp=0.8,period=120.0",
)


class TestRegistry:
    def test_builtins_registered(self):
        assert set(BUILTINS) <= set(arrival_processes())

    def test_unknown_family_suggests(self):
        with pytest.raises(ValueError, match="unknown arrival process"):
            ArrivalSpec.parse("possion")

    def test_open_registry(self):
        @register_arrival("everyother_test", replace=True)
        class EveryOther(ArrivalProcess):
            description = "test-only"
            params = {"gap": ArrivalParam(2.0)}

            def sample_arrivals(self, rng, rps, n, *, gap):
                return np.arange(1, n + 1) * gap

        trace = generate_trace("imdb", 1.0, 5, seed=0,
                               arrival="everyother_test?gap=3.0")
        assert [t.arrival_s for t in trace] == [3.0, 6.0, 9.0, 12.0, 15.0]


class TestGrammar:
    def test_parse_canonical_round_trip(self):
        for text in SPECS:
            spec = ArrivalSpec.parse(text)
            assert ArrivalSpec.parse(spec.canonical()) == spec

    def test_canonical_sorts_params(self):
        a = ArrivalSpec.canonical_of("mmpp?duty=0.2,burst=4")
        b = ArrivalSpec.canonical_of("mmpp?burst=4,duty=0.2")
        assert a == b == "mmpp?burst=4.0,duty=0.2"

    def test_explicit_default_is_kept(self):
        assert ArrivalSpec.canonical_of("gamma?cv=2.0") == "gamma?cv=2.0"
        assert ArrivalSpec.canonical_of("gamma") == "gamma"

    def test_bad_parameter_name(self):
        with pytest.raises(ValueError, match="no parameter"):
            ArrivalSpec.parse("gamma?shape=2")

    def test_bad_parameter_value(self):
        with pytest.raises(ValueError, match="expects a number"):
            ArrivalSpec.parse("gamma?cv=high")

    def test_malformed_pair(self):
        with pytest.raises(ValueError, match="bad arrival parameter"):
            ArrivalSpec.parse("gamma?cv")

    def test_duplicate_parameter(self):
        with pytest.raises(ValueError, match="given twice"):
            ArrivalSpec.parse("gamma?cv=1,cv=2")

    def test_range_validation(self):
        for bad in ("gamma?cv=0", "mmpp?burst=0.5", "mmpp?duty=1.5",
                    "mmpp?dwell=-1", "diurnal?amp=1.5",
                    "diurnal?period=0"):
            with pytest.raises(ValueError):
                ArrivalSpec.parse(bad)

    def test_split_arrival_list(self):
        assert split_list(
            "poisson,mmpp?burst=4,duty=0.2,gamma?cv=3"
        ) == ["poisson", "mmpp?burst=4,duty=0.2", "gamma?cv=3"]
        assert split_list("constant") == ["constant"]


class TestSampling:
    @pytest.mark.parametrize("spec", SPECS)
    def test_arrivals_sorted_and_positive(self, spec):
        times = ArrivalSpec.parse(spec).sample(
            np.random.default_rng(0), rps=2.0, n=500)
        assert times.shape == (500,)
        assert times[0] > 0
        assert np.all(np.diff(times) >= 0)

    @pytest.mark.parametrize("spec", SPECS)
    def test_deterministic_given_seed(self, spec):
        a = ArrivalSpec.parse(spec).sample(np.random.default_rng(7), 2.0, 100)
        b = ArrivalSpec.parse(spec).sample(np.random.default_rng(7), 2.0, 100)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("spec", SPECS)
    def test_long_run_rate(self, spec):
        """Every process targets the same long-run rps."""
        times = ArrivalSpec.parse(spec).sample(
            np.random.default_rng(1), rps=5.0, n=8000)
        assert 8000 / times[-1] == pytest.approx(5.0, rel=0.15)

    def test_constant_gaps_uniform(self):
        times = ArrivalSpec.parse("constant").sample(
            np.random.default_rng(0), rps=4.0, n=10)
        np.testing.assert_allclose(np.diff(times), 0.25)

    def test_gamma_cv_controls_burstiness(self):
        rng = np.random.default_rng(3)
        smooth = np.diff(
            ArrivalSpec.parse("gamma?cv=0.3").sample(rng, 2.0, 5000))
        rng = np.random.default_rng(3)
        bursty = np.diff(
            ArrivalSpec.parse("gamma?cv=3.0").sample(rng, 2.0, 5000))
        assert bursty.std() > 3 * smooth.std()

    def test_mmpp_burstier_than_poisson(self):
        rng = np.random.default_rng(4)
        pois = np.diff(ArrivalSpec.parse("poisson").sample(rng, 2.0, 5000))
        rng = np.random.default_rng(4)
        mmpp = np.diff(ArrivalSpec.parse(
            "mmpp?burst=8.0,duty=0.1,dwell=20.0").sample(rng, 2.0, 5000))
        cv = lambda g: g.std() / g.mean()   # noqa: E731
        assert cv(mmpp) > cv(pois)

    def test_diurnal_rate_oscillates(self):
        """Arrivals cluster in the sine peaks: the peak-phase half of
        each cycle must hold well over half the arrivals."""
        times = ArrivalSpec.parse("diurnal?amp=0.9,period=100.0").sample(
            np.random.default_rng(5), rps=4.0, n=6000)
        phase = (times % 100.0) / 100.0
        in_peak = ((phase > 0.0) & (phase < 0.5)).mean()
        assert in_peak > 0.6

    def test_validation(self):
        with pytest.raises(ValueError):
            ArrivalSpec.parse("poisson").sample(
                np.random.default_rng(0), 0.0, 5)
        with pytest.raises(ValueError):
            ArrivalSpec.parse("poisson").sample(
                np.random.default_rng(0), 1.0, 0)


class TestTraceIntegration:
    def test_default_is_bitwise_legacy_poisson(self):
        """The refactor must not move a single bit of existing traces:
        the default path draws the same exponential block first."""
        trace = generate_trace("cocktail", 1.5, 50, seed=9)
        explicit = generate_trace("cocktail", 1.5, 50, seed=9,
                                  arrival="poisson")
        rng = np.random.default_rng(9)
        expected = np.cumsum(rng.exponential(scale=1.0 / 1.5, size=50))
        assert trace == explicit
        np.testing.assert_array_equal(
            [t.arrival_s for t in trace], expected)

    def test_trace_deterministic_per_process(self):
        """Each (seed, arrival) pair is fully deterministic; different
        processes consume the stream differently, so their traces are
        distinct but individually reproducible."""
        a = generate_trace("imdb", 2.0, 30, seed=4, arrival="poisson")
        b = generate_trace("imdb", 2.0, 30, seed=4, arrival="constant")
        assert len(a) == len(b) == 30
        assert a != b
        assert b == generate_trace("imdb", 2.0, 30, seed=4,
                                   arrival="constant")

    def test_max_context_lower_bound(self):
        with pytest.raises(ValueError, match="max_context"):
            generate_trace("imdb", 1.0, 10, max_context=1)

    def test_arrival_spec_object_accepted(self):
        spec = ArrivalSpec.of("gamma", cv=3.0)
        trace = generate_trace("imdb", 2.0, 10, seed=0, arrival=spec)
        assert len(trace) == 10


class TestMergeTraces:
    def test_merge_orders_and_renumbers(self):
        a = generate_trace("cocktail", 0.5, 20, seed=1)
        b = generate_trace("imdb", 3.0, 60, seed=2, arrival="mmpp")
        merged = merge_traces(a, b)
        assert len(merged) == 80
        arrivals = [r.arrival_s for r in merged]
        assert arrivals == sorted(arrivals)
        assert [r.request_id for r in merged] == list(range(80))

    def test_merge_preserves_lengths(self):
        a = generate_trace("cocktail", 0.5, 10, seed=1)
        b = generate_trace("imdb", 3.0, 10, seed=2)
        merged = merge_traces(a, b)
        assert sorted((r.input_len, r.output_len) for r in merged) == \
            sorted((r.input_len, r.output_len) for r in [*a, *b])

    def test_merged_trace_simulates(self):
        from repro.methods import get_method
        from repro.model import get_model
        from repro.sim import default_cluster, simulate

        merged = merge_traces(
            generate_trace("cocktail", 0.3, 8, seed=1),
            generate_trace("imdb", 2.0, 20, seed=2, arrival="gamma?cv=3.0"),
        )
        config = default_cluster(get_model("L"), get_method("hack"), "A10G")
        res = simulate(config, merged)
        assert len(res.requests) == 28

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            merge_traces()
