"""Tests for repro.perfmodel — the analytic timing model."""

import pytest

from repro.cluster import replica_resources
from repro.methods import get_method, hack_method
from repro.model import get_model
from repro.perfmodel import (
    DEFAULT_CALIBRATION,
    BatchCostModel,
    calibrated,
    kv_wire_bytes,
    param_read_time,
    prefill_time,
    transfer_time,
)

L = get_model("L")
A10G = replica_resources(L, "A10G")
V100 = replica_resources(L, "V100")
A100 = replica_resources(L, "A100")
BASELINE = get_method("baseline")
HACK = get_method("hack")
CACHEGEN = get_method("cachegen")


class TestCalibration:
    def test_partition_efficiency_monotone(self):
        c = DEFAULT_CALIBRATION
        assert c.partition_efficiency(32) < c.partition_efficiency(64) \
            < c.partition_efficiency(128) < 1.0

    def test_partition_efficiency_validation(self):
        with pytest.raises(ValueError):
            DEFAULT_CALIBRATION.partition_efficiency(0)

    def test_calibrated_overrides(self):
        c = calibrated(linear_mfu=0.6)
        # repro: lint-ignore[REPRO604] same literal in and out, bit-exact
        assert c.linear_mfu == 0.6
        assert c.attention_mfu == DEFAULT_CALIBRATION.attention_mfu

    def test_invalid_efficiency_rejected(self):
        with pytest.raises(ValueError):
            calibrated(linear_mfu=0.0)
        with pytest.raises(ValueError):
            calibrated(net_efficiency=1.5)


class TestPrefill:
    def test_scales_superlinearly_with_prompt(self):
        short = prefill_time(L, A10G, 1000, BASELINE).compute_s
        long = prefill_time(L, A10G, 16000, BASELINE).compute_s
        assert long > 16 * short  # quadratic attention term

    def test_hack_faster_where_int8(self):
        base = prefill_time(L, A10G, 16200, BASELINE)
        hack = prefill_time(L, A10G, 16200, HACK)
        assert hack.compute_s < base.compute_s
        assert hack.linear_s == base.linear_s  # only attention accelerates

    def test_hack_no_gain_on_v100(self):
        """§7.2: V100 cannot accelerate HACK's prefill computation."""
        base = prefill_time(L, V100, 16200, BASELINE)
        hack = prefill_time(L, V100, 16200, HACK)
        assert hack.compute_s == pytest.approx(base.compute_s)

    def test_gain_grows_with_sequence_length(self):
        """Longer prompts → larger attention share → bigger HACK gain."""
        gains = []
        for prompt in (315, 6300, 16200):
            base = prefill_time(L, A10G, prompt, BASELINE).compute_s
            hack = prefill_time(L, A10G, prompt, HACK).compute_s
            gains.append(1 - hack / base)
        assert gains[0] < gains[1] < gains[2]

    def test_quantize_cost_small_fraction(self):
        """Paper: quantization is 1.25–2.91% of JCT; here a small share
        of prefill alone."""
        hack = prefill_time(L, A10G, 16200, HACK)
        assert 0 < hack.quantize_s < 0.05 * hack.compute_s

    def test_baseline_pays_no_quantize(self):
        assert prefill_time(L, A10G, 16200, BASELINE).quantize_s == 0.0

    def test_smaller_partition_slower(self):
        """Table 8: Π=32 prefill slower than Π=128."""
        small = prefill_time(L, A10G, 16200, hack_method(32)).compute_s
        large = prefill_time(L, A10G, 16200, hack_method(128)).compute_s
        assert small > large

    def test_validation(self):
        with pytest.raises(ValueError):
            prefill_time(L, A10G, 0, BASELINE)


class TestDecode:
    def test_param_read_is_floor(self):
        shared = param_read_time(L, A100)
        costs = BatchCostModel(L, A100, BASELINE).request_costs(16000)
        assert shared > costs.kv_read_s  # weights dominate one request

    def test_kv_read_scales_with_method_bytes(self):
        base = BatchCostModel(L, A100, BASELINE).request_costs(16000)
        hack = BatchCostModel(L, A100, HACK).request_costs(16000)
        ratio = hack.kv_read_s / base.kv_read_s
        assert 0.13 <= ratio <= 0.18  # ~2-bit + metadata vs FP16

    def test_dequant_only_for_comparators(self):
        assert BatchCostModel(L, A100, CACHEGEN).request_costs(16000).dequant_s > 0
        assert BatchCostModel(L, A100, BASELINE).request_costs(16000).dequant_s == 0
        assert BatchCostModel(L, A100, HACK).request_costs(16000).dequant_s == 0

    def test_kvquant_dequant_costlier_than_cachegen(self):
        cg = BatchCostModel(L, A100, CACHEGEN).request_costs(16000).dequant_s
        kq = BatchCostModel(L, A100, get_method("kvquant")).request_costs(16000).dequant_s
        assert kq > cg

    def test_dequant_dwarfs_approximation(self):
        """The paper's core claim (§5.3): Eq. 4 corrections cost far
        less than per-iteration dequantization at long context."""
        cg = BatchCostModel(L, A100, CACHEGEN).request_costs(16000)
        hack = BatchCostModel(L, A100, HACK).request_costs(16000)
        assert hack.approx_s < 0.1 * cg.dequant_s

    def test_no_se_much_more_expensive(self):
        """Fig. 13: recomputing sums every iteration is costly."""
        with_se = BatchCostModel(L, A100, HACK).request_costs(16000)
        without = BatchCostModel(L, A100, get_method("hack_nose")).request_costs(16000)
        assert without.approx_s > 10 * with_se.approx_s

    def test_no_rqe_pays_requant(self):
        norqe = BatchCostModel(L, A100, get_method("hack_norqe")).request_costs(16000)
        assert norqe.requant_s > 0
        assert BatchCostModel(L, A100, HACK).request_costs(16000).requant_s == 0

    def test_no_int8_on_v100(self):
        """V100 lacks INT8 tensor cores; HACK falls back to FP16 rates."""
        hack = BatchCostModel(L, V100, HACK).request_costs(16000)
        base = BatchCostModel(L, V100, BASELINE).request_costs(16000)
        assert hack.compute_s >= base.compute_s

    def test_iteration_latency_grows_with_batch(self):
        one = BatchCostModel(L, A100, BASELINE).iteration([16000]).latency_s
        eight = BatchCostModel(L, A100, BASELINE).iteration([16000] * 8).latency_s
        assert eight > one
        assert eight < 8 * one  # parameters amortize across the batch

    def test_hack_iteration_faster_than_baseline(self):
        base = BatchCostModel(L, A100, BASELINE).iteration([16000] * 8).latency_s
        hack = BatchCostModel(L, A100, HACK).iteration([16000] * 8).latency_s
        assert hack < base

    def test_validation(self):
        with pytest.raises(ValueError):
            BatchCostModel(L, A100, BASELINE).request_costs(0)
        with pytest.raises(ValueError):
            BatchCostModel(L, A100, BASELINE).iteration([])


class TestTransfer:
    def test_wire_bytes_fp16(self):
        assert kv_wire_bytes(L, BASELINE, 1000) == 1000 * L.kv_bytes_per_token()

    def test_hack_compression_ratio(self):
        """~84% smaller wire size at Π=64 ('~15% of original size')."""
        ratio = kv_wire_bytes(L, HACK, 1000) / kv_wire_bytes(L, BASELINE, 1000)
        assert 0.14 <= ratio <= 0.17

    def test_transfer_ordering_across_gpus(self):
        """V100 (10 Gbps) slowest, A100 (200 Gbps share) fastest."""
        times = {
            gpu: transfer_time(L, BASELINE, 16200,
                               replica_resources(L, gpu), A100)
            for gpu in ("A10G", "V100", "T4", "A100")
        }
        assert times["V100"] > times["A10G"] > times["T4"] > times["A100"]

    def test_quantization_cuts_transfer_6x(self):
        base = transfer_time(L, BASELINE, 16200, A10G, A100)
        hack = transfer_time(L, HACK, 16200, A10G, A100)
        assert base / hack > 5.5

    def test_pipelining_reduces_exposed_time(self):
        full = transfer_time(L, BASELINE, 16200, A10G, A100)
        piped = transfer_time(L, BASELINE, 16200, A10G, A100,
                              pipelined=True, prefill_compute_s=full * 2)
        assert piped < full

    def test_via_cpu_slower(self):
        direct = transfer_time(L, BASELINE, 16200, A10G, A100)
        swapped = transfer_time(L, BASELINE, 16200, A10G, A100, via_cpu=True)
        assert swapped > direct

    def test_validation(self):
        with pytest.raises(ValueError):
            kv_wire_bytes(L, BASELINE, 0)
