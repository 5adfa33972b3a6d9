"""Runner execution: resolution fidelity, parallel == serial, artifacts."""

import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.api import Runner, RunArtifact, Scenario, Sweep, compare_artifacts
from repro.api import runner as runner_module
from repro.api.runner import resolve
from repro.methods import get_method
from repro.model import get_model
from repro.sim import default_cluster

#: Small but non-trivial cell: short prompts keep the simulation fast.
SMALL = Scenario(methods=("baseline", "hack"), dataset="imdb",
                 n_requests=16, seed=3)


class TestResolve:
    def test_matches_default_cluster(self):
        resolved = resolve(Scenario(methods=("hack",)))
        expected = default_cluster(get_model("L"), get_method("hack"), "A10G")
        assert resolved.configs["hack"] == expected

    def test_replica_overrides(self):
        resolved = resolve(SMALL.replace(n_prefill_replicas=3,
                                         n_decode_replicas=1))
        config = resolved.configs["baseline"]
        assert config.n_prefill_replicas == 3
        assert config.n_decode_replicas == 1

    def test_decode_gpu_and_activation_overhead_flow_through(self):
        resolved = resolve(Scenario(model="Y", methods=("baseline",),
                                    decode_gpu="L4",
                                    activation_overhead=0.3))
        config = resolved.configs["baseline"]
        assert config.decode_gpu == "L4"
        # repro: lint-ignore[REPRO604] same literal in and out, bit-exact
        assert config.activation_overhead == 0.3

    def test_trace_is_method_independent(self):
        a = resolve(SMALL.replace(methods=("baseline",)))
        b = resolve(SMALL.replace(methods=("hack",)))
        assert a.trace == b.trace

    def test_calibration_overrides_applied(self):
        resolved = resolve(SMALL.replace(
            calibration={"net_efficiency": 0.5}))
        assert resolved.calib.net_efficiency == 0.5

    def test_unknown_method_raises(self):
        with pytest.raises(ValueError, match="unknown method"):
            resolve(Scenario(methods=("no_such_method",)))


class TestRunner:
    @pytest.fixture(scope="class")
    def serial(self):
        return Runner().run(SMALL)

    def test_artifact_carries_live_results(self, serial):
        assert set(serial.results) == {"baseline", "hack"}
        assert serial.results["hack"].avg_jct() > 0

    def test_parallel_is_bit_identical_to_serial(self, serial):
        parallel = Runner(workers=4).run(SMALL)
        assert parallel.to_json() == serial.to_json()
        assert compare_artifacts(parallel, serial)["equal"]

    def test_sweep_parallel_equals_serial(self):
        sweep = Sweep(SMALL.replace(methods=("hack",)),
                      axes={"dataset": ["imdb", "humaneval"],
                            "seed": [1, 2]})
        serial = Runner().run_sweep(sweep)
        parallel = Runner(workers=4).run_sweep(sweep)
        assert [a.to_json() for a in serial] == \
            [a.to_json() for a in parallel]

    def test_sweep_order_matches_expansion(self):
        sweep = Sweep(SMALL.replace(methods=("baseline",)),
                      axes={"seed": [1, 2]})
        artifacts = Runner().run_sweep(sweep)
        assert [a.scenario.seed for a in artifacts] == [1, 2]

    def test_invalid_workers_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            Runner(workers=0)

    def test_summary_fields(self, serial):
        summary = serial.methods["baseline"].summary
        assert summary["n_requests"] == 16
        assert summary["p50_jct_s"] <= summary["p99_jct_s"] \
            <= summary["max_jct_s"]
        assert set(summary["mean_decomposition_s"]) == {
            "queue", "prefill", "quant", "comm", "dequant_or_approx",
            "decode"}

    def test_per_request_records(self, serial):
        records = serial.methods["hack"].requests
        assert len(records) == 16
        first = records[0]
        assert first["request_id"] == 0
        assert first["jct_s"] > 0
        assert set(first["decomposition_s"]) == {
            "queue", "prefill", "quant", "comm", "dequant_or_approx",
            "decode"}


class TestArtifactIO:
    @pytest.fixture(scope="class")
    def artifact(self):
        return Runner().run(SMALL)

    def test_save_load_round_trip(self, artifact, tmp_path):
        path = artifact.save(tmp_path)
        loaded = RunArtifact.load(path)
        assert loaded.to_json() == artifact.to_json()
        assert loaded.scenario == SMALL
        assert loaded.results is None   # live objects don't round-trip

    def test_explicit_filename(self, artifact, tmp_path):
        path = artifact.save(tmp_path / "custom.json")
        assert path.name == "custom.json"
        assert RunArtifact.load(path).to_json() == artifact.to_json()

    def test_schema_version_enforced(self, artifact):
        data = artifact.to_dict()
        data["schema_version"] = 99
        with pytest.raises(ValueError, match="schema_version"):
            RunArtifact.from_dict(data)
        data["schema"] = "something-else"
        with pytest.raises(ValueError, match="not a"):
            RunArtifact.from_dict(data)

    def test_compare_flags_differences(self, artifact):
        other = Runner().run(SMALL.replace(seed=4))
        diff = compare_artifacts(artifact, other)
        assert not diff["equal"]
        assert not diff["scenario_equal"]
        assert "avg_jct_s" in diff["methods"]["baseline"]

    def test_compare_equal_artifacts(self, artifact):
        again = Runner().run(SMALL)
        diff = compare_artifacts(artifact, again)
        assert diff["equal"]
        assert diff["methods"] == {}

    def test_compare_sees_bucket_reattribution(self, artifact):
        """Moving time between buckets while preserving JCT totals must
        still be flagged (the regression `compare` exists to catch)."""
        import copy

        other = copy.deepcopy(RunArtifact.from_dict(artifact.to_dict()))
        decomp = other.methods["baseline"].summary["mean_decomposition_s"]
        shift = decomp["decode"] * 0.5
        decomp["decode"] -= shift
        decomp["comm"] += shift
        diff = compare_artifacts(artifact, other)
        assert not diff["equal"]
        assert "mean_decomposition_s.comm" in diff["methods"]["baseline"]

    def test_compare_sees_per_request_drift(self, artifact):
        # via JSON so the copy shares no mutable state with `artifact`
        other = RunArtifact.from_json(artifact.to_json())
        other.methods["hack"].requests[3]["jct_s"] *= 1.01
        diff = compare_artifacts(artifact, other)
        assert not diff["equal"]
        assert "requests.jct_s" in diff["methods"]["hack"]


class TestRunMethodsEquivalence:
    def test_wrapper_matches_api(self):
        """experiments.common.run_methods is a thin view over the API."""
        from repro.experiments.common import run_methods

        old = run_methods(("baseline", "hack"), dataset="imdb",
                          n_requests=16, seed=3)
        new = Runner().run(SMALL).results
        for method in ("baseline", "hack"):
            assert old[method].avg_jct() == new[method].avg_jct()
            assert old[method].peak_memory_fraction == \
                new[method].peak_memory_fraction

    def test_registry_model_spec_accepted(self):
        from repro.experiments.common import make_scenario

        scenario = make_scenario(("baseline",), model=get_model("Y"))
        assert scenario.model == "Y"

    def test_modified_model_spec_rejected(self):
        """A non-registry spec must fail loudly, not be silently swapped
        for the stock model of the same letter."""
        import dataclasses

        from repro.experiments.common import run_methods

        tweaked = dataclasses.replace(get_model("L"), max_context=4096)
        with pytest.raises(ValueError, match="registry"):
            run_methods(("baseline",), model=tweaked, n_requests=10)


def _strict_json(text: str):
    """Parse ``text``, rejecting the non-standard NaN/Infinity tokens."""
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(text, parse_constant=reject)


@pytest.fixture
def zero_clock(monkeypatch):
    """A clock that never advances: every measured wall time is 0."""
    monkeypatch.setattr(runner_module, "time",
                        SimpleNamespace(perf_counter=lambda: 1.0))


class TestPerfRecordJson:
    def test_zero_wall_perf_record_is_standard_json(self, zero_clock):
        resolved = resolve(SMALL.replace(methods=("hack",)))
        _, perf = runner_module._timed_simulate(resolved.configs["hack"],
                                                list(resolved.trace))
        assert perf["wall_s"] == 0.0
        assert perf["simulated_tokens"] > 0
        assert perf["tokens_per_s"] == 0.0
        assert _strict_json(json.dumps(perf, allow_nan=False)) == perf

    @pytest.mark.parametrize("clock", ["real", "zero"])
    def test_sim_throughput_bench_json_is_standard(self, clock, request,
                                                   tmp_path):
        if clock == "zero":
            request.getfixturevalue("zero_clock")
        script = (Path(__file__).resolve().parents[2] / "benchmarks"
                  / "bench_sim_throughput.py")
        spec = importlib.util.spec_from_file_location("bench_sim_throughput",
                                                      script)
        bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)
        out = tmp_path / "bench.json"
        assert bench.main(["--scale", "0.02", "--methods", "baseline,hack",
                           "--bench-json", str(out)]) == 0
        record = _strict_json(out.read_text())
        assert set(record["methods"]) == {"baseline", "hack"}
        assert "lint_runtime" not in record
