"""Cross-package integration tests: the full prefill→ship→decode story."""

import numpy as np
import pytest

from repro.core import (
    Fp16KVCache,
    HackKVCache,
    attention_reference,
    make_rng,
    pack_codes,
    unpack_codes,
)
from repro.methods import get_method
from repro.model import Transformer, tiny_spec
from repro.perfmodel import kv_wire_bytes
from repro.quant import HackCompressor
from repro.sim import default_cluster, simulate
from repro.workload import generate_trace
from repro.model import get_model


class TestPrefillToDecodeHandoff:
    """The §5.1 workflow end to end on the runnable transformer."""

    def test_shipped_kv_reproduces_decode_attention(self):
        """Quantize prefill KV, pack it, 'transmit', unpack on the
        decode side, and verify the decode cache computes the same
        attention as a cache fed the original values + quantization."""
        spec = tiny_spec()
        model = Transformer(spec, seed=9)
        prompt = list(make_rng(0).integers(0, spec.vocab_size, size=32))
        k_plane, v_plane = model.kv_planes(prompt)[0]
        d = spec.head_dim
        k_head = k_plane[:, :d]
        v_head = v_plane[:, :d]

        # Prefill side: quantize and serialize the codes.
        sender = HackKVCache(d, partition_size=16, rng=make_rng(1))
        sender.append_bulk(k_head, v_head)
        k_hat_sent, v_hat_sent = sender.materialize()

        # The wire carries packed 2-bit codes; round-trip one block.
        codes = sender._v_quantized().codes[:16]
        packed = pack_codes(codes, 2)
        unpacked = unpack_codes(packed, codes.size, 2).reshape(codes.shape)
        np.testing.assert_array_equal(unpacked, codes)

        # Decode side: the same quantized values drive attention.
        q_vec = make_rng(2).normal(size=d)
        receiver = Fp16KVCache(d)
        receiver.append_bulk(k_hat_sent, v_hat_sent)
        out_receiver = receiver.attention(q_vec)
        ref = attention_reference(q_vec[None, :], k_hat_sent, v_hat_sent,
                                  causal=False)[0]
        np.testing.assert_allclose(out_receiver, ref, atol=1e-9)

    def test_method_bytes_match_compressor_measurement(self):
        """The registry's analytic bytes/value agrees with the real
        quantizer's measured size on actual KV planes."""
        spec = tiny_spec(head_dim=64, n_kv_heads=1, n_heads=2,
                         hidden_size=128)
        model = Transformer(spec, seed=4)
        prompt = list(make_rng(3).integers(0, spec.vocab_size, size=128))
        k_plane, _ = model.kv_planes(prompt)[0]
        measured = HackCompressor(partition_size=64, plane_kind="k",
                                  include_sums=False).compress(k_plane)
        analytic = get_method("hack").kv_wire_bytes_per_value
        measured_per_value = measured.nbytes / k_plane.size
        assert measured_per_value == pytest.approx(analytic, rel=0.05)

    def test_wire_bytes_consistency(self):
        """perfmodel wire bytes = tokens x per-token bytes x method."""
        L = get_model("L")
        hack = get_method("hack")
        assert kv_wire_bytes(L, hack, 1000) == pytest.approx(
            1000 * L.kv_bytes_per_token(hack.kv_wire_bytes_per_value)
        )


class TestSimulationCrossChecks:
    def test_methods_share_arrival_process(self):
        """Different methods see identical arrivals and lengths."""
        L = get_model("L")
        trace = generate_trace("arxiv", 0.5, 25, seed=5)
        res_a = simulate(default_cluster(L, get_method("baseline"), "A10G"),
                         trace)
        res_b = simulate(default_cluster(L, get_method("hack"), "A10G"),
                         trace)
        for a, b in zip(res_a.requests, res_b.requests):
            assert a.trace == b.trace

    def test_bucket_sums_bound_jct(self):
        L = get_model("L")
        trace = generate_trace("cocktail", 0.3, 20, seed=6)
        res = simulate(default_cluster(L, get_method("cachegen"), "A10G"),
                       trace)
        for r in res.requests:
            decomp = r.decomposition()
            assert sum(decomp.values()) == pytest.approx(r.jct, rel=1e-6)

    def test_int4_variant_at_least_as_fast(self):
        L = get_model("L")
        trace = generate_trace("cocktail", 0.45, 25, seed=7)
        base = simulate(default_cluster(L, get_method("hack"), "A10G"), trace)
        int4 = simulate(default_cluster(L, get_method("hack_int4"), "A10G"),
                        trace)
        assert int4.avg_jct() <= base.avg_jct() + 1e-9


class TestGenerationWithEveryCacheFamily:
    """The transformer decodes correctly through each cache type."""

    @pytest.mark.parametrize("method", ["baseline", "hack", "hack_norqe",
                                        "dequant2bit"])
    def test_generation_runs(self, method):
        from repro.accuracy import generation_agreement

        g = generation_agreement(method, n_prompts=1, max_new_tokens=8)
        assert g.n_tokens == 8
        assert 0.0 <= g.rouge1_f1 <= 1.0
