"""Tests for repro.cluster — GPUs, instances, parallelism and the network."""

import pytest

from repro.cluster import (
    DEFAULT_PREFILL_FLEETS,
    GPUS,
    NetworkModel,
    get_gpu,
    get_instance,
    get_parallelism,
    instance_for_gpu,
    replica_resources,
)


class TestGpuRegistry:
    def test_all_five_gpus(self):
        assert set(GPUS) == {"A10G", "V100", "T4", "L4", "A100"}

    def test_v100_lacks_int8(self):
        """The Fig. 12 premise: V100 tensor cores have no INT8 path."""
        assert not get_gpu("V100").supports_int8_matmul
        assert get_gpu("V100").int8_tops == 0

    def test_others_have_int8_2x(self):
        for name in ("A10G", "T4", "L4", "A100"):
            gpu = get_gpu(name)
            assert gpu.int8_tops / gpu.fp16_tflops == pytest.approx(2.0)

    def test_case_insensitive_lookup(self):
        assert get_gpu("a10g") is GPUS["A10G"]

    def test_unknown_gpu(self):
        with pytest.raises(KeyError):
            get_gpu("H100")

    def test_no_fp8_support(self):
        """§3: none of the testbed GPUs support FP8 compute."""
        assert not any(g.supports_fp8 for g in GPUS.values())


class TestInstanceRegistry:
    def test_table2_bandwidths(self):
        expected = {"g5.12xlarge": 40, "p3.8xlarge": 10, "g4dn.12xlarge": 50,
                    "g6.12xlarge": 40, "p4de.24xlarge": 400}
        for name, gbps in expected.items():
            assert get_instance(name).network_gbps == gbps

    def test_table2_gpu_memory(self):
        expected = {"g5.12xlarge": 96, "p3.8xlarge": 64, "g4dn.12xlarge": 64,
                    "g6.12xlarge": 96, "p4de.24xlarge": 640}
        for name, gib in expected.items():
            inst = get_instance(name)
            assert inst.gpu.mem_gb * inst.n_gpus == gib

    def test_instance_for_gpu(self):
        assert instance_for_gpu("A10G").name == "g5.12xlarge"
        assert instance_for_gpu("A100").name == "p4de.24xlarge"

    def test_fleet_sizes_section_7_1(self):
        assert DEFAULT_PREFILL_FLEETS == {"A10G": 10, "V100": 16, "T4": 16,
                                          "L4": 10, "A100": 2}

    def test_network_bytes_per_s(self):
        """Table 2's Gbps become goodput bytes/s on the link the
        network model times (g5.12xlarge sending to p4de.24xlarge)."""
        gbps = get_instance("g5.12xlarge").network_gbps
        assert NetworkModel(efficiency=1.0).goodput(gbps, 400) == \
            pytest.approx(5e9)
        assert NetworkModel(efficiency=0.5).goodput(gbps, 400) == \
            pytest.approx(2.5e9)


class TestParallelism:
    def test_table3_llama(self):
        assert get_parallelism("L", "A10G").pp == 2
        assert get_parallelism("L", "V100").pp == 4
        assert get_parallelism("L", "A100").pp == 1
        assert get_parallelism("L", "A10G").tp == 4

    def test_table3_falcon(self):
        assert get_parallelism("F", "V100").n_gpus == 32
        assert get_parallelism("F", "A100").n_gpus == 8

    def test_table3_mistral_a100_single_gpu(self):
        assert get_parallelism("M", "A100").n_gpus == 1

    def test_a10g_l4_share_config(self):
        for letter in "MPYLF":
            assert get_parallelism(letter, "A10G") == get_parallelism(letter, "L4")

    def test_unknown_pair(self):
        with pytest.raises(KeyError):
            get_parallelism("L", "H100")


class TestReplicaResources:
    def test_llama_a10g_spans_two_instances(self):
        res = replica_resources("L", "A10G")
        assert res.parallelism.n_gpus == 8
        assert res.n_instances == 2
        assert res.mem_gb == 8 * 24

    def test_nic_funneling(self):
        """Multi-instance replicas transfer at one NIC's rate."""
        assert replica_resources("L", "A10G").network_gbps == 40
        assert replica_resources("L", "V100").network_gbps == 10

    def test_partial_instance_share(self):
        """A 4-GPU replica on an 8-GPU p4de gets half the 400 Gbps."""
        assert replica_resources("L", "A100").network_gbps == 200

    def test_v100_replica_no_int8(self):
        assert not replica_resources("L", "V100").supports_int8
        assert replica_resources("L", "A10G").supports_int8

    def test_aggregate_compute(self):
        res = replica_resources("L", "A100")
        assert res.fp16_tflops == 4 * 312


class TestNetworkModel:
    def test_transfer_time_scales_with_bytes(self):
        net = NetworkModel(efficiency=1.0, latency_s=0.0)
        t1 = net.transfer_time(1e9, 40, 400).seconds
        t2 = net.transfer_time(2e9, 40, 400).seconds
        assert t2 == pytest.approx(2 * t1)

    def test_bottleneck_is_min(self):
        net = NetworkModel(efficiency=1.0, latency_s=0.0)
        a = net.transfer_time(1e9, 10, 400).seconds
        b = net.transfer_time(1e9, 400, 10).seconds
        assert a == pytest.approx(b)

    def test_exact_value(self):
        net = NetworkModel(efficiency=0.5, latency_s=0.0)
        # 40 Gbps * 0.5 = 2.5 GB/s -> 1 GB in 0.4 s.
        assert net.transfer_time(1e9, 40, 400).seconds == pytest.approx(0.4)

    def test_cpu_swap_adds_pcie_legs(self):
        net = NetworkModel()
        direct = net.transfer_time(1e9, 40, 400, via_cpu=False).seconds
        swapped = net.transfer_time(1e9, 40, 400, via_cpu=True).seconds
        assert swapped > direct

    def test_pipelining_bounds(self):
        """Exposed time is between one stage's tail and the full time."""
        net = NetworkModel(efficiency=1.0, latency_s=0.0)
        full = net.transfer_time(8e9, 40, 400).seconds
        exposed = net.pipelined_exposed_time(8e9, 40, 400, compute_s=full,
                                             n_stages=80)
        assert full / 80 <= exposed < full

    def test_pipelining_ineffective_when_comm_dominates(self):
        """§2.1 case i: communication >> prefill leaves most exposed."""
        net = NetworkModel(efficiency=1.0, latency_s=0.0)
        full = net.transfer_time(8e9, 10, 400).seconds
        exposed = net.pipelined_exposed_time(8e9, 10, 400,
                                             compute_s=full / 10, n_stages=80)
        assert exposed > 0.85 * full

    def test_pipelining_effective_when_compute_dominates(self):
        net = NetworkModel(efficiency=1.0, latency_s=0.0)
        full = net.transfer_time(1e9, 40, 400).seconds
        exposed = net.pipelined_exposed_time(1e9, 40, 400,
                                             compute_s=10 * full, n_stages=80)
        assert exposed == pytest.approx(full / 80)

    def test_validation(self):
        with pytest.raises(ValueError):
            NetworkModel(efficiency=0.0)
        with pytest.raises(ValueError):
            NetworkModel(latency_s=-1)
        net = NetworkModel()
        with pytest.raises(ValueError):
            net.transfer_time(-1, 40, 400)
        with pytest.raises(ValueError):
            net.pipelined_exposed_time(1e9, 40, 400, 1.0, 0)
