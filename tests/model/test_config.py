"""Tests for repro.model.config — the model registry (paper Table 3)."""

import pytest

from repro.model.config import MODEL_LETTERS, MODELS, get_model, tiny_spec


class TestRegistry:
    def test_all_five_paper_models_present(self):
        assert set(MODEL_LETTERS) == {"M", "P", "Y", "L", "F"}

    def test_lookup_by_name_and_letter(self):
        assert get_model("llama-3.1-70b") is get_model("L")

    def test_unknown_model(self):
        with pytest.raises(KeyError):
            get_model("gpt-5")

    def test_param_counts_roughly_match_names(self):
        expected = {"M": 7e9, "P": 14e9, "Y": 34e9, "L": 70e9, "F": 180e9}
        for letter, approx in expected.items():
            spec = get_model(letter)
            assert 0.9 * approx <= spec.n_params <= 1.15 * approx

    def test_architecture_estimate_consistent(self):
        """Architecture-derived parameter count within ~12% of published."""
        for spec in MODELS.values():
            est = spec.estimated_params()
            assert 0.85 * spec.n_params <= est <= 1.15 * spec.n_params, spec.name

    def test_falcon_context_cap(self):
        """The paper notes Falcon-180B is limited to a 2K context."""
        assert get_model("F").max_context == 2048

    def test_gqa_divisibility(self):
        for spec in MODELS.values():
            assert spec.n_heads % spec.n_kv_heads == 0


class TestDerivedSizes:
    def test_llama70b_kv_bytes_per_token(self):
        """2 · 80 layers · 8 kv-heads · 128 dim · 2 B = 320 KiB/token."""
        assert get_model("L").kv_bytes_per_token() == 327_680

    def test_kv_scales_with_quantization(self):
        spec = get_model("L")
        fp16 = spec.kv_bytes_per_token(2)
        two_bit = spec.kv_bytes_per_token(0.25)
        assert two_bit == fp16 / 8

    def test_param_bytes(self):
        spec = get_model("M")
        assert spec.param_bytes() == spec.n_params * 2

    def test_kv_ordering_across_models(self):
        """Falcon's 8 kv-heads × 64 dims gives a smaller per-token KV
        than Llama-70B despite more parameters."""
        assert get_model("F").kv_bytes_per_token() < \
            get_model("L").kv_bytes_per_token()


class TestTinySpec:
    def test_defaults_valid(self):
        spec = tiny_spec()
        assert spec.n_params == spec.estimated_params()
        assert spec.n_heads % spec.n_kv_heads == 0

    def test_custom_dims(self):
        spec = tiny_spec(n_layers=3, hidden_size=32, n_heads=2, n_kv_heads=1,
                         head_dim=16)
        assert spec.n_layers == 3
        assert spec.kv_bytes_per_token() == 2 * 3 * 1 * 16 * 2

    def test_invalid_gqa_rejected(self):
        with pytest.raises(ValueError):
            tiny_spec(n_heads=3, n_kv_heads=2)
