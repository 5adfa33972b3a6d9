"""Tests for repro.methods — the method registry."""

import pytest

from repro.methods import (
    ABLATIONS,
    FP_FORMAT_METHODS,
    METHODS,
    PAPER_COMPARISON,
    get_method,
    hack_method,
    quantized_bytes_per_value,
)


class TestQuantizedBytes:
    def test_2bit_pi64(self):
        """0.25 B codes + 4/64 B metadata = 0.3125 B/value."""
        assert quantized_bytes_per_value(2, 64) == pytest.approx(0.3125)

    def test_sums_add_expected_bytes(self):
        """Π=64 2-bit sums fit one byte per partition: +1/64 B/value."""
        with_sums = quantized_bytes_per_value(2, 64, include_sums=True)
        assert with_sums == pytest.approx(0.3125 + 1 / 64)

    def test_pi128_uses_int16_sums(self):
        """§6: 9-bit sums at Π=128 are stored as INT16."""
        delta = (quantized_bytes_per_value(2, 128, True)
                 - quantized_bytes_per_value(2, 128, False))
        assert delta == pytest.approx(2 / 128)

    def test_smaller_pi_more_metadata(self):
        assert quantized_bytes_per_value(2, 32) > \
            quantized_bytes_per_value(2, 64) > quantized_bytes_per_value(2, 128)


class TestRegistry:
    def test_paper_comparison_set(self):
        assert PAPER_COMPARISON == ("baseline", "cachegen", "kvquant", "hack")
        for name in PAPER_COMPARISON + ABLATIONS + FP_FORMAT_METHODS:
            assert name in METHODS

    def test_baseline_is_fp16(self):
        base = get_method("baseline")
        assert base.kv_wire_bytes_per_value == 2.0
        assert base.compression_ratio == 0.0

    def test_comparators_86_percent(self):
        for name in ("cachegen", "kvquant"):
            assert get_method(name).compression_ratio == pytest.approx(0.86)

    def test_hack_compression_within_paper_band(self):
        """'approximately 15% of its original size' (§7.2)."""
        hack = get_method("hack")
        assert 0.82 <= hack.compression_ratio <= 0.87

    def test_hack_flags(self):
        hack = get_method("hack")
        assert hack.int8_attention
        assert hack.approx_per_iter
        assert not hack.dequant_per_iter
        assert hack.summation_elimination
        assert hack.requant_elimination

    def test_comparators_dequant_no_speedup(self):
        for name in ("cachegen", "kvquant"):
            m = get_method(name)
            assert m.dequant_per_iter
            assert not m.int8_attention
            assert not m.approx_per_iter

    def test_kvquant_dequant_scale(self):
        assert get_method("kvquant").dequant_traffic_scale > \
            get_method("cachegen").dequant_traffic_scale

    def test_ablation_variants(self):
        assert not get_method("hack_nose").summation_elimination
        assert not get_method("hack_norqe").requant_elimination
        # Ablations keep everything else identical to HACK.
        assert get_method("hack_nose").int8_attention
        assert get_method("hack_norqe").int8_attention

    def test_nose_has_no_resident_sums(self):
        assert get_method("hack_nose").kv_mem_bytes_per_value < \
            get_method("hack").kv_mem_bytes_per_value

    def test_fp_format_compression_ordering(self):
        """§3: FP4 < FP6 < FP8 wire size; all worse than 2-bit schemes."""
        fp4, fp6, fp8 = (get_method(n) for n in FP_FORMAT_METHODS)
        assert fp4.compression_ratio == pytest.approx(0.734, abs=0.01)
        assert fp6.compression_ratio == pytest.approx(0.609, abs=0.01)
        assert fp8.compression_ratio == pytest.approx(0.484, abs=0.01)
        assert fp4.compression_ratio < get_method("hack").compression_ratio

    def test_fp_formats_pay_conversion(self):
        for name in FP_FORMAT_METHODS:
            assert get_method(name).dequant_per_iter

    def test_fp8_simulated_speedup_flag(self):
        assert get_method("fp8").fp8_attention_sim
        assert not get_method("fp4").fp8_attention_sim

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            get_method("int4")

    def test_typo_gets_close_match_suggestion(self):
        with pytest.raises(ValueError, match="did you mean 'hack_pi64'"):
            get_method("hack_pi_64")


class TestHackMethodFactory:
    def test_pi_sensitivity_bytes(self):
        assert hack_method(32).kv_wire_bytes_per_value > \
            hack_method(64).kv_wire_bytes_per_value

    def test_default_naming(self):
        assert hack_method(32).name == "hack_pi32"
        assert hack_method(64, summation_elimination=False).name == \
            "hack_pi64_nose"

    def test_validation(self):
        with pytest.raises(ValueError):
            hack_method(64, name="bad").__class__(
                name="x", display_name="x",
                kv_wire_bytes_per_value=1.0, kv_mem_bytes_per_value=0.5,
            )
