"""The kvstore experiment: store × selection grid on session traffic."""

import pytest

from repro.experiments import kvstore

SCALE = 0.1


@pytest.fixture(scope="module")
def study():
    return kvstore.run(scale=SCALE)


class TestGrid:
    def test_full_grid_present(self, study):
        assert len(study.results) == \
            len(kvstore.KVSTORES) * len(kvstore.SELECTIONS)
        assert study.cold() is study.results[(None, None)]

    def test_warm_store_beats_cold(self, study):
        """The acceptance shape: a warm pooled store on a session
        workload hits and cuts mean TTFT versus the cold baseline."""
        cold = study.cold().summary()
        warm_res = study.results[("tiered?dram_gb=8.0", None)]
        warm = warm_res.summary()
        assert study.cold().kvstore_stats is None
        assert warm_res.kvstore_stats["hit_rate"] > 0
        assert warm["mean_ttft_s"] < cold["mean_ttft_s"]

    def test_undersized_ttl_store_churns(self, study):
        from repro.kvstore import KVStoreSpec
        tiny, = [KVStoreSpec.canonical_of(k) for k in kvstore.KVSTORES
                 if k and "ttl" in k]
        stats = study.results[(tiny, None)].kvstore_stats
        churn = sum(t["evictions"] for t in stats["tiers"].values())
        assert churn + stats["expired"] + stats["dropped"] > 0

    def test_selection_mix_reported(self, study):
        res = study.results[("tiered?dram_gb=8.0", "slo_tier")]
        assert res.selection_mix
        assert study.cold().selection_mix is None

    def test_renders(self, study):
        text = study.render()
        assert "hit_rate" in text and "(none)" in text
        assert "slo_tier" in text
