"""Scenario/Sweep declarative layer: construction and JSON round-trips."""

import json

import pytest

from repro.api import Scenario, Sweep
from repro.api.scenario import model_dataset
from repro.model import get_model


class TestScenario:
    def test_defaults_match_paper_conventions(self):
        s = Scenario()
        assert s.model == "L"
        assert s.dataset == "cocktail"
        assert s.prefill_gpu == "A10G"
        assert s.decode_gpu == "A100"
        assert s.methods == ("baseline",)

    def test_methods_string_is_split(self):
        s = Scenario(methods="baseline,hack")
        assert s.methods == ("baseline", "hack")

    def test_empty_methods_rejected(self):
        with pytest.raises(ValueError, match="at least one method"):
            Scenario(methods=())

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ValueError, match="scale"):
            Scenario(scale=0)

    def test_json_round_trip(self):
        s = Scenario(model="Y", methods=("baseline", "hack"), dataset="imdb",
                     prefill_gpu="V100", decode_gpu="L4", rps=0.25,
                     seed=7, scale=0.5, pipelining=True,
                     n_prefill_replicas=3,
                     calibration={"net_efficiency": 0.5})
        restored = Scenario.from_json(s.to_json())
        assert restored == s
        assert restored.calibration_overrides() == {"net_efficiency": 0.5}

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown scenario field"):
            Scenario.from_dict({"modle": "L"})

    def test_json_is_deterministic(self):
        a = Scenario(calibration={"kv_bw_eff": 0.1, "net_efficiency": 0.5})
        b = Scenario(calibration={"net_efficiency": 0.5, "kv_bw_eff": 0.1})
        assert a == b
        assert a.to_json() == b.to_json()
        assert a.slug() == b.slug()

    def test_slug_distinguishes_scenarios(self):
        assert Scenario().slug() != Scenario(seed=2).slug()

    def test_name_label_never_affects_identity(self):
        """A sweep-labelled cell equals the same cell run directly."""
        plain, labelled = Scenario(), Scenario(name="dataset=cocktail")
        assert plain == labelled
        assert plain.slug() == labelled.slug()
        # …but the label still round-trips through JSON.
        assert Scenario.from_json(labelled.to_json()).name == \
            "dataset=cocktail"

    def test_split_methods(self):
        s = Scenario(methods=("baseline", "hack"), dataset="arxiv")
        parts = s.split_methods()
        assert [p.methods for p in parts] == [("baseline",), ("hack",)]
        assert all(p.dataset == "arxiv" for p in parts)

    def test_model_dataset_falcon_substitution(self):
        name, cap = model_dataset(get_model("F"), "cocktail")
        assert (name, cap) == ("arxiv", 2048)


NAN, INF = float("nan"), float("inf")


class TestScenarioNumbers:
    """Plain numeric fields reject NaN, ±inf, out-of-range and wrongly
    typed values at construction, not only when written out."""

    @pytest.mark.parametrize("bad", [NAN, INF, -INF, -1.0, 0.0, 0, True])
    def test_load_factor(self, bad):
        with pytest.raises(ValueError, match="load_factor"):
            Scenario(load_factor=bad)

    @pytest.mark.parametrize("bad", [NAN, INF, -0.5, 0.0])
    def test_rps(self, bad):
        with pytest.raises(ValueError, match="rps"):
            Scenario(rps=bad)

    @pytest.mark.parametrize("bad", [NAN, INF, -1.0, None])
    def test_scale(self, bad):
        with pytest.raises(ValueError, match="scale"):
            Scenario(scale=bad)

    @pytest.mark.parametrize("bad", [0, -3, 12.5, 12.0, NAN, True])
    def test_n_requests(self, bad):
        with pytest.raises(ValueError, match="n_requests"):
            Scenario(n_requests=bad)

    @pytest.mark.parametrize("field", ["n_prefill_replicas",
                                       "n_decode_replicas"])
    @pytest.mark.parametrize("bad", [0, -1, 2.5, INF])
    def test_replica_counts(self, field, bad):
        with pytest.raises(ValueError, match=field):
            Scenario(**{field: bad})

    @pytest.mark.parametrize("bad", [NAN, INF, -0.1])
    def test_activation_overhead(self, bad):
        with pytest.raises(ValueError, match="activation_overhead"):
            Scenario(activation_overhead=bad)

    @pytest.mark.parametrize("bad", [-1, 1.5, NAN, "7", True])
    def test_seed(self, bad):
        with pytest.raises(ValueError, match="seed"):
            Scenario(seed=bad)

    def test_unknown_prefill_gpu(self):
        with pytest.raises(ValueError, match="unknown GPU 'Z80'.*A10G"):
            Scenario(prefill_gpu="Z80")
        with pytest.raises(ValueError, match="unknown GPU 'Z80'"):
            Scenario(prefill_gpu="A10G:2+Z80")

    def test_unknown_decode_gpu(self):
        """Once, this constructed and failed only in resolution, with a
        ``KeyError`` from the parallelism table."""
        with pytest.raises(ValueError,
                           match="decode_gpu: unknown GPU 'Z80'.*A100"):
            Scenario(decode_gpu="Z80")

    @pytest.mark.parametrize("bad", [NAN, -INF, -0.5, "fast"])
    def test_calibration_values(self, bad):
        with pytest.raises(ValueError, match="calibration value kv_bw_eff"):
            Scenario(calibration={"kv_bw_eff": bad})

    def test_valid_values_still_construct(self):
        s = Scenario(load_factor=1, rps=0.25, scale=0.5, n_requests=12,
                     n_prefill_replicas=3, n_decode_replicas=1,
                     activation_overhead=0.0, seed=0,
                     prefill_gpu="a10g+T4",
                     calibration={"kv_bw_eff": 0.1})
        assert s.load_factor == 1 and s.activation_overhead == 0.0


class TestSweep:
    def test_expansion_is_row_major(self):
        sweep = Sweep(Scenario(), axes={"dataset": ["imdb", "arxiv"],
                                        "seed": [1, 2]})
        cells = [(s.dataset, s.seed) for s in sweep.expand()]
        assert cells == [("imdb", 1), ("imdb", 2),
                         ("arxiv", 1), ("arxiv", 2)]
        assert len(sweep) == 4

    def test_methods_axis_freezes_lists(self):
        sweep = Sweep(Scenario(), axes={"methods": [["baseline"], ["hack"]]})
        assert [s.methods for s in sweep.expand()] == [("baseline",),
                                                       ("hack",)]

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError, match="not a sweepable"):
            Sweep(Scenario(), axes={"nonsense": [1]})

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="no values"):
            Sweep(Scenario(), axes={"dataset": []})

    def test_json_round_trip(self):
        sweep = Sweep(Scenario(methods=("hack",)),
                      axes={"dataset": ["imdb", "cocktail"],
                            "prefill_gpu": ["A10G", "V100"]})
        restored = Sweep.from_json(sweep.to_json())
        assert restored == sweep
        assert restored.expand() == sweep.expand()
        # and the JSON itself is valid, deterministic JSON
        assert json.loads(sweep.to_json())["axes"]["dataset"] == \
            ["imdb", "cocktail"]

    def test_override_rescales_base(self):
        sweep = Sweep(Scenario(), axes={"dataset": ["imdb"]})
        assert sweep.override(scale=0.25).base.scale == 0.25
        # the original is untouched (sweeps are immutable)
        assert sweep.base.scale == 1.0
