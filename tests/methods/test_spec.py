"""MethodSpec: grammar/JSON round-trips, the open family registry, and
the golden legacy-compatibility contract (all 13 historical names must
resolve bit-for-bit to their pre-redesign Method instances)."""

import json

import pytest

from repro.api import Scenario, Sweep
from repro.methods import (
    Method,
    MethodFamily,
    MethodSpec,
    ParamDef,
    apply_method_params,
    canonical_method,
    get_method,
    legacy_names,
    method_spec,
    parse_method,
    register_family,
    resolve_method,
    split_method_list,
)
from repro.methods.spec import _LEGACY, method_families


class TestParseAndCanonical:
    def test_bare_family(self):
        spec = parse_method("quant")
        assert spec == MethodSpec("quant")
        assert spec.canonical() == "quant"

    def test_parameterized(self):
        spec = parse_method("hack?pi=128,bits=4,se=off")
        assert dict(spec.params) == {
            "partition_size": 128, "bits": 4,
            "summation_elimination": False,
        }

    def test_aliases_and_long_names_are_equivalent(self):
        assert parse_method("hack?pi=128") == \
            parse_method("hack?partition_size=128")

    def test_parameter_order_is_irrelevant(self):
        assert parse_method("hack?bits=4,pi=128") == \
            parse_method("hack?pi=128,bits=4")

    def test_boolean_spellings(self):
        for token in ("off", "false", "no", "0"):
            spec = parse_method(f"hack?se={token}")
            assert dict(spec.params)["summation_elimination"] is False
        for token in ("on", "true", "yes", "1"):
            spec = parse_method(f"hack?rqe={token}")
            assert dict(spec.params)["requant_elimination"] is True

    def test_canonical_round_trip(self):
        for text in ("hack?pi=128,bits=4,se=off", "quant?bits=4",
                     "fp?bits=6", "cachegen?delta_bits=4,delta_gain=8",
                     "hack?gain=1.6"):
            spec = parse_method(text)
            assert parse_method(spec.canonical()) == spec

    def test_float_values_round_trip_exactly(self):
        """Close-but-distinct floats must keep distinct canonical
        strings (they drive scenario slugs, i.e. artifact filenames)."""
        a = MethodSpec.of("hack", int_compute_gain=1 / 3)
        b = MethodSpec.of("hack", int_compute_gain=0.3333334)
        assert a.canonical() != b.canonical()
        assert parse_method(a.canonical()) == a
        assert parse_method(b.canonical()) == b

    def test_canonical_uses_short_aliases(self):
        assert parse_method("hack?partition_size=128").canonical() == \
            "hack?pi=128"

    def test_unknown_family_suggests(self):
        with pytest.raises(ValueError, match="did you mean 'hack'"):
            parse_method("hacck?pi=64")

    def test_unknown_parameter_suggests(self):
        with pytest.raises(ValueError, match="no parameter 'partition_siez'"):
            parse_method("hack?partition_siez=64")

    def test_duplicate_parameter_rejected(self):
        with pytest.raises(ValueError, match="given twice"):
            parse_method("hack?pi=32,partition_size=64")

    def test_malformed_pair_rejected(self):
        with pytest.raises(ValueError, match="grammar"):
            parse_method("hack?pi")

    def test_type_coercion_errors(self):
        with pytest.raises(ValueError, match="integer"):
            parse_method("hack?pi=sixty-four")
        with pytest.raises(ValueError, match="on/off"):
            parse_method("hack?se=maybe")

    def test_choices_enforced(self):
        with pytest.raises(ValueError, match="must be one of"):
            parse_method("fp?bits=5")

    def test_legacy_names_parse_to_their_spec(self):
        assert parse_method("hack_pi128") == \
            MethodSpec.of("hack", partition_size=128)


class TestJsonRoundTrip:
    def test_flat_dict_form(self):
        spec = MethodSpec.of("hack", partition_size=128, bits=4,
                             summation_elimination=False)
        data = spec.to_dict()
        assert data == {"family": "hack", "partition_size": 128,
                        "bits": 4, "summation_elimination": False}
        assert MethodSpec.from_dict(data) == spec

    def test_issue_example_dict(self):
        spec = MethodSpec.from_dict({
            "family": "hack", "partition_size": 128, "bits": 4,
            "summation_elimination": False,
        })
        assert spec.canonical() == "hack?bits=4,pi=128,se=off"

    def test_json_round_trip_via_string(self):
        spec = parse_method("quant?bits=8,pi=32")
        restored = MethodSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert restored == spec
        assert restored.canonical() == spec.canonical()

    def test_missing_family_rejected(self):
        with pytest.raises(ValueError, match="'family'"):
            MethodSpec.from_dict({"partition_size": 64})

    def test_spec_string_json_spec_triangle(self):
        """spec -> string -> spec -> dict -> spec all agree."""
        original = MethodSpec.of("hack", bits=4)
        via_string = parse_method(original.canonical())
        via_dict = MethodSpec.from_dict(via_string.to_dict())
        assert original == via_string == via_dict


#: Every pre-redesign registry entry, verbatim (byte counts written out
#: as exact literals — 2-bit codes are 0.25 B, Π metadata is 4/Π B,
#: SE sums are sum_storage_bits/8/Π B).
GOLDEN_METHODS = {
    "baseline": Method(
        name="baseline", display_name="Baseline",
        kv_wire_bytes_per_value=2.0, kv_mem_bytes_per_value=2.0),
    "cachegen": Method(
        name="cachegen", display_name="CacheGen",
        kv_wire_bytes_per_value=0.28, kv_mem_bytes_per_value=0.28,
        dequant_per_iter=True, quantize_cost=True),
    "kvquant": Method(
        name="kvquant", display_name="KVQuant",
        kv_wire_bytes_per_value=0.28, kv_mem_bytes_per_value=0.28,
        dequant_per_iter=True, dequant_traffic_scale=1.25,
        quantize_cost=True),
    "hack": Method(
        name="hack", display_name="HACK",
        kv_wire_bytes_per_value=0.3125, kv_mem_bytes_per_value=0.328125,
        int8_attention=True, approx_per_iter=True, quantize_cost=True,
        partition_size=64),
    "hack_pi32": Method(
        name="hack_pi32", display_name="HACK (Π=32)",
        kv_wire_bytes_per_value=0.375, kv_mem_bytes_per_value=0.40625,
        int8_attention=True, approx_per_iter=True, quantize_cost=True,
        partition_size=32),
    "hack_pi64": Method(
        name="hack_pi64", display_name="HACK (Π=64)",
        kv_wire_bytes_per_value=0.3125, kv_mem_bytes_per_value=0.328125,
        int8_attention=True, approx_per_iter=True, quantize_cost=True,
        partition_size=64),
    "hack_pi128": Method(
        name="hack_pi128", display_name="HACK (Π=128)",
        kv_wire_bytes_per_value=0.28125, kv_mem_bytes_per_value=0.296875,
        int8_attention=True, approx_per_iter=True, quantize_cost=True,
        partition_size=128),
    "hack_nose": Method(
        name="hack_nose", display_name="HACK/SE",
        kv_wire_bytes_per_value=0.3125, kv_mem_bytes_per_value=0.3125,
        int8_attention=True, approx_per_iter=True, quantize_cost=True,
        partition_size=64, summation_elimination=False),
    "hack_norqe": Method(
        name="hack_norqe", display_name="HACK/RQE",
        kv_wire_bytes_per_value=0.3125, kv_mem_bytes_per_value=0.328125,
        int8_attention=True, approx_per_iter=True, quantize_cost=True,
        partition_size=64, requant_elimination=False),
    "hack_int4": Method(
        name="hack_int4", display_name="HACK (INT4 kernel)",
        kv_wire_bytes_per_value=0.3125, kv_mem_bytes_per_value=0.328125,
        int8_attention=True, int_compute_gain=1.6, approx_per_iter=True,
        quantize_cost=True, partition_size=64),
    "fp4": Method(
        name="fp4", display_name="FP4 (E2M1)",
        kv_wire_bytes_per_value=0.53125, kv_mem_bytes_per_value=0.53125,
        dequant_per_iter=True, quantize_cost=True),
    "fp6": Method(
        name="fp6", display_name="FP6 (E3M2)",
        kv_wire_bytes_per_value=0.78125, kv_mem_bytes_per_value=0.78125,
        dequant_per_iter=True, quantize_cost=True),
    "fp8": Method(
        name="fp8", display_name="FP8 (E4M3)",
        kv_wire_bytes_per_value=1.03125, kv_mem_bytes_per_value=1.03125,
        dequant_per_iter=True, fp8_attention_sim=True, quantize_cost=True),
}


class TestLegacyGolden:
    def test_all_13_names_registered(self):
        assert set(legacy_names()) == set(GOLDEN_METHODS)
        assert len(GOLDEN_METHODS) == 13

    @pytest.mark.parametrize("name", sorted(GOLDEN_METHODS))
    def test_legacy_name_resolves_bit_for_bit(self, name):
        """Equality covers every Method field, name and display
        included — the spec path must reproduce the frozen registry."""
        assert resolve_method(name) == GOLDEN_METHODS[name]
        assert get_method(name) == GOLDEN_METHODS[name]

    def test_legacy_names_canonicalize_to_themselves(self):
        for name in legacy_names():
            assert canonical_method(name) == name

    def test_no_legacy_alias_shadows_another_family(self):
        """parse_method resolves legacy aliases before families, so an
        alias spelled like a registered family must name that family,
        or the family becomes unreachable by its own name."""
        families = method_families()
        for alias, entry in _LEGACY.items():
            if alias in families:
                assert entry.spec.family == alias, alias

    def test_grammar_spec_equals_legacy_values(self):
        assert resolve_method("hack?pi=128") == get_method("hack_pi128")
        assert resolve_method("fp?bits=6") == get_method("fp6")

    def test_perf_and_accuracy_share_one_spec(self):
        """No duplicated byte accounting: the perf Method's wire bytes
        and the compressor's measured bytes come from the same spec."""
        import numpy as np

        spec = MethodSpec.of("hack", partition_size=32)
        method = spec.build_method()
        k_comp, _ = spec.build_compressors()
        plane = np.arange(64 * 32, dtype=float).reshape(64, 32)
        measured = k_comp.compress(plane)
        assert measured.nbytes / plane.size == pytest.approx(
            method.kv_mem_bytes_per_value)


class TestSplitMethodList:
    def test_plain_list(self):
        assert split_method_list("baseline,hack") == ["baseline", "hack"]

    def test_spec_keeps_its_parameters(self):
        assert split_method_list("baseline,hack?pi=128,bits=4,cachegen") == \
            ["baseline", "hack?pi=128,bits=4", "cachegen"]

    def test_spec_first(self):
        assert split_method_list("hack?pi=32,se=off,baseline") == \
            ["hack?pi=32,se=off", "baseline"]

    def test_empty_tokens_skipped(self):
        assert split_method_list("baseline,,hack,") == ["baseline", "hack"]

    def test_plus_joined_sets_keep_spec_parameters(self):
        """The CLI's methods-axis values: '+'-joined sets where only
        the last member can have an open '?' clause."""
        assert split_method_list("baseline+hack?pi=128,bits=4,kvquant") == \
            ["baseline+hack?pi=128,bits=4", "kvquant"]
        assert split_method_list("hack?pi=64+baseline,kvquant") == \
            ["hack?pi=64+baseline", "kvquant"]

    def test_string_values_reject_grammar_metacharacters(self):
        """A str parameter value containing ',', '=', '?', '+' or a
        space would canonicalize to an unparseable string."""
        with pytest.raises(ValueError, match="free of"):
            MethodSpec.of("quant", dequant="a,b")


class TestScenarioIntegration:
    def test_spec_strings_canonicalize(self):
        s = Scenario(methods="baseline,hack?partition_size=128,bits=4")
        assert s.methods == ("baseline", "hack?bits=4,pi=128")

    def test_spec_objects_and_dicts_accepted(self):
        s = Scenario(methods=(MethodSpec.of("hack", bits=4),
                              {"family": "fp", "bits": 6}))
        assert s.methods == ("hack?bits=4", "fp?bits=6")

    def test_spec_scenario_json_round_trip(self):
        s = Scenario(methods=("hack?pi=256",), dataset="imdb")
        assert Scenario.from_json(s.to_json()) == s

    def test_spec_slug_is_filesystem_safe(self):
        slug = Scenario(methods=("hack?pi=128,bits=4",)).slug()
        assert "?" not in slug and "," not in slug

    def test_legacy_slug_pinned(self):
        """Pre-spec scenarios must keep their exact slug (artifact
        filenames are part of the compatibility contract)."""
        assert Scenario().slug() == "l-cocktail-a10g-baseline-08e4dd26"
        assert Scenario(methods=("baseline", "hack")).slug() == \
            "l-cocktail-a10g-baseline+hack-5ae34792"

    def test_unknown_method_string_kept_verbatim(self):
        """Scenarios are pure description: a method whose family is not
        registered here must still construct (saved artifacts from
        other processes render and diff); resolution errors at run
        time."""
        from repro.api.runner import resolve

        s = Scenario(methods=("some_custom?knob=1",))
        assert s.methods == ("some_custom?knob=1",)
        with pytest.raises(ValueError, match="unknown method"):
            resolve(s)

    def test_unknown_method_object_rejected(self):
        with pytest.raises(ValueError, match="unknown method family"):
            Scenario(methods=({"family": "no_such_family"},))

    def test_malformed_spec_of_known_family_rejected(self):
        """Only *unknown families* defer validation; a bad parameter
        of a registered family is a construction error."""
        with pytest.raises(ValueError, match="no parameter 'pii'"):
            Scenario(methods=("hack?pii=128",))

    def test_int_boolean_spellings(self):
        """The grammar's 1/0 booleans also work as ints (sweep axes
        coerce numeric tokens before the spec sees them)."""
        assert apply_method_params("hack", {"se": 1}) == \
            ("hack?se=on", {"se"})
        assert apply_method_params("hack", {"se": 0}) == \
            ("hack?se=off", {"se"})
        with pytest.raises(ValueError, match="boolean"):
            MethodSpec.of("hack", summation_elimination=2)


class TestMethodAxes:
    def test_sweep_expands_partition_sizes(self):
        sweep = Sweep(Scenario(methods=("baseline", "hack")),
                      axes={"method.partition_size": [32, 64, 128, 256]})
        assert len(sweep) == 4
        grids = [s.methods for s in sweep.expand()]
        assert grids == [("baseline", "hack?pi=32"),
                         ("baseline", "hack?pi=64"),
                         ("baseline", "hack?pi=128"),
                         ("baseline", "hack?pi=256")]

    def test_labels_name_the_axis(self):
        sweep = Sweep(Scenario(methods=("hack",)),
                      axes={"method.bits": [2, 4]})
        assert [s.name for s in sweep.expand()] == \
            ["method.bits=2", "method.bits=4"]

    def test_method_axis_composes_with_field_axes(self):
        sweep = Sweep(Scenario(methods=("hack",)),
                      axes={"dataset": ["imdb", "arxiv"],
                            "method.partition_size": [32, 64]})
        cells = [(s.dataset, s.methods) for s in sweep.expand()]
        assert cells == [("imdb", ("hack?pi=32",)),
                         ("imdb", ("hack?pi=64",)),
                         ("arxiv", ("hack?pi=32",)),
                         ("arxiv", ("hack?pi=64",))]

    def test_parameter_survives_on_parameterized_base(self):
        sweep = Sweep(Scenario(methods=("hack?se=off",)),
                      axes={"method.partition_size": [128]})
        assert sweep.expand()[0].methods == ("hack?pi=128,se=off",)

    def test_inapplicable_axis_rejected(self):
        sweep = Sweep(Scenario(methods=("baseline",)),
                      axes={"method.partition_size": [32]})
        with pytest.raises(ValueError, match="apply to none"):
            sweep.expand()

    def test_comparator_rides_along_as_its_own_methods_cell(self):
        """A methods axis crossed with a method axis must not abort on
        the comparator-only cells — inertness is judged across the
        whole grid, not per cell."""
        sweep = Sweep(Scenario(),
                      axes={"methods": [("baseline",), ("hack",)],
                            "method.partition_size": [32, 64]})
        grids = [s.methods for s in sweep.expand()]
        assert grids == [("baseline",), ("baseline",),
                         ("hack?pi=32",), ("hack?pi=64",)]

    def test_degenerate_quant_params_rejected(self):
        with pytest.raises(ValueError, match="partition_size"):
            resolve_method("hack?pi=0")
        with pytest.raises(ValueError, match="bits"):
            resolve_method("quant?bits=0")

    def test_behavior_changing_params_reach_the_method_name(self):
        """Distinct specs must not collapse to one Method name (labels
        and display series are derived from it)."""
        assert resolve_method("hack?gain=1.6").name == "hack_pi64_gain1.6"
        assert resolve_method("quant?dequant=once").name == "int4_pi64_once"
        assert resolve_method("quant").name == "int4_pi64"

    def test_typoed_axis_cannot_hide_behind_a_valid_one(self):
        """Applicability is per parameter: a typo'd axis must error
        even when another method axis applies (a silently inert axis
        would expand to duplicate scenarios with colliding slugs)."""
        sweep = Sweep(Scenario(methods=("hack",)),
                      axes={"method.partition_size": [32, 64],
                            "method.bit": [2, 4]})   # typo: 'bit'
        with pytest.raises(ValueError, match=r"\['bit'\] apply to none"):
            sweep.expand()

    def test_empty_method_axis_name_rejected(self):
        with pytest.raises(ValueError, match="names no parameter"):
            Sweep(Scenario(), axes={"method.": [1]})

    def test_apply_method_params_passthrough(self):
        new, applied = apply_method_params("baseline",
                                           {"partition_size": 32})
        assert (new, applied) == ("baseline", set())
        new, applied = apply_method_params("hack_nose", {"pi": 128})
        assert (new, applied) == ("hack?pi=128,se=off", {"pi"})


@register_family("testtoy")
class _ToyFamily(MethodFamily):
    """A perf-model-only family used to exercise the open registry."""

    description = "test-only token-dropping family"
    params = {"keep": ParamDef(0.5)}

    def build_method(self, *, keep):
        return Method(name=f"testtoy{keep:g}",
                      display_name=f"Toy (keep={keep:g})",
                      kv_wire_bytes_per_value=2.0 * keep,
                      kv_mem_bytes_per_value=2.0 * keep)


class TestOpenRegistry:
    def test_user_family_resolves(self):
        method = resolve_method("testtoy?keep=0.25")
        assert method.kv_wire_bytes_per_value == 0.5
        assert method.compression_ratio == 0.75

    def test_user_family_sweeps(self):
        sweep = Sweep(Scenario(methods=("testtoy",)),
                      axes={"method.keep": [0.25, 1.0]})
        wires = [resolve_method(s.methods[0]).kv_wire_bytes_per_value
                 for s in sweep.expand()]
        assert wires == [0.5, 2.0]

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_family("testtoy")(_ToyFamily)

    def test_no_accuracy_path_is_a_clear_error(self):
        spec = method_spec("testtoy")
        with pytest.raises(ValueError, match="no accuracy path"):
            spec.attention_output(None, None, None, None)

    def test_bad_family_name_rejected(self):
        class Bad(MethodFamily):
            params = {}

        with pytest.raises(ValueError, match="family name"):
            register_family("Not A Name!")(Bad)
