"""TieredKVStore runtime semantics: lookup/put/promotion/eviction."""

import pytest

from repro.kvstore import KVStoreSpec, TierDef, TieredKVStore
from repro.kvstore.spec import LFUEviction, LRUEviction
from repro.perfmodel.tiers import TIER_LATENCY_S, tier_access_time

#: 1 byte/token so entry bytes == tokens; tier names outside
#: TIER_LATENCY_S get zero fixed latency, keeping arithmetic exact.
BPT = 1.0


def _store(caps=(100, 200, 400), eviction=None):
    tiers = [TierDef(f"t{i}", float(c), read_gb_s=1.0, write_gb_s=1.0)
             for i, c in enumerate(caps)]
    return TieredKVStore(tiers, eviction or LRUEviction())


class TestLookupPut:
    def test_miss_on_empty(self):
        store = _store()
        hit = store.lookup("s0", 50, now=0.0)
        assert not hit.hit and hit.tokens == 0 and hit.tier is None
        assert store.n_lookups == 1 and store.n_hits == 0
        assert store.hit_rate() == 0.0

    def test_hit_is_token_granular_minimum(self):
        store = _store()
        store.put("s0", 80, BPT, "hack", now=0.0)
        assert store.lookup("s0", 50, now=1.0).tokens == 50   # request side
        assert store.lookup("s0", 99, now=2.0).tokens == 80   # cache side

    def test_zero_prefix_is_a_miss(self):
        store = _store()
        store.put("s0", 80, BPT, "hack", now=0.0)
        assert not store.lookup("s0", 0, now=1.0).hit

    def test_hit_charges_owning_tier_read(self):
        store = _store()
        store.put("s0", 80, BPT, "hack", now=0.0)
        hit = store.lookup("s0", 80, now=1.0)
        tier = store.tiers[0]
        assert hit.tier == "t0"
        assert hit.read_s == tier_access_time(80 * BPT, 1.0, 0.0)
        assert tier.bytes_read == 80 * BPT
        assert tier.hits == 1

    def test_put_extends_and_never_shrinks(self):
        store = _store()
        store.put("s0", 50, BPT, "hack", now=0.0)
        store.put("s0", 90, BPT, "hack", now=1.0)     # turn 2 writeback
        assert store._index["s0"].tokens == 90
        store.put("s0", 40, BPT, "hack", now=2.0)     # shrinking re-put
        assert store._index["s0"].tokens == 90
        assert store.tiers[0].used_bytes == 90 * BPT

    def test_degenerate_puts_ignored(self):
        store = _store()
        store.put("s0", 0, BPT, "hack", now=0.0)
        store.put("s1", 10, 0.0, "hack", now=0.0)
        assert not store._index

    def test_hit_promotes_to_top_tier(self):
        store = _store(caps=(100, 200, 400))
        store.put("a", 80, BPT, "hack", now=0.0)
        store.put("b", 80, BPT, "hack", now=1.0)      # evicts a -> t1
        assert store._index["a"].tier == 1
        store.lookup("a", 80, now=2.0)
        assert store._index["a"].tier == 0            # hot again
        assert store._index["b"].tier == 1            # displaced

    def test_oversized_entry_not_promoted(self):
        store = _store(caps=(100, 200, 400))
        store.put("big", 150, BPT, "hack", now=0.0)   # overflows t0 -> t1
        assert store._index["big"].tier == 1
        store.lookup("big", 150, now=1.0)
        assert store._index["big"].tier == 1          # can never fit t0


class TestEviction:
    def test_capacity_demotes_down_the_hierarchy(self):
        store = _store(caps=(100, 100, 400))
        for i, key in enumerate(("a", "b", "c")):
            store.put(key, 80, BPT, "hack", now=float(i))
        assert store._index["a"].tier == 2            # demoted twice
        assert store._index["b"].tier == 1
        assert store._index["c"].tier == 0
        assert store.tiers[0].evictions == 2
        assert store.n_dropped == 0

    def test_demotion_skips_tiers_too_small_to_ever_fit(self):
        """An entry larger than the DRAM tier must still reach the
        pool, not fall out of the hierarchy (regression)."""
        store = _store(caps=(100, 50, 400))
        store.put("big", 80, BPT, "hack", now=0.0)
        store.put("big2", 90, BPT, "hack", now=1.0)
        assert store._index["big"].tier == 2          # skipped t1 (cap 50)
        assert store.n_dropped == 0

    def test_dropped_out_of_the_bottom(self):
        store = _store(caps=(100, 100, 100))
        for i in range(5):
            store.put(f"k{i}", 80, BPT, "hack", now=float(i))
        assert store.n_dropped == 2
        assert len(store._index) == 3
        for tier in store.tiers:
            assert tier.used_bytes <= tier.spec.capacity_bytes

    def test_lru_vs_lfu_pick_different_victims(self):
        def fill(eviction):
            store = _store(caps=(200, 0.0001, 0.0001), eviction=eviction)
            store.put("cold", 90, BPT, "hack", now=0.0)
            store.put("hot", 90, BPT, "hack", now=1.0)
            store.lookup("hot", 90, now=2.0)          # hot: recent + hit
            store.lookup("cold", 90, now=3.0)         # cold: recent, 1 hit
            store.lookup("hot", 90, now=4.0)          # hot: 2 hits
            store.put("new", 90, BPT, "hack", now=5.0)
            return store

        lru = fill(LRUEviction())
        assert set(lru._index) == {"hot", "new"}      # cold is the LRU
        lfu = fill(LFUEviction())
        assert set(lfu._index) == {"hot", "cold"}     # new has no hits

    def test_ttl_expires_idle_entries(self):
        store = KVStoreSpec.parse(
            "tiered?hbm_gb=0.001+ttl?seconds=10").build()
        store.put("s0", 100, BPT, "hack", now=0.0)
        assert store.lookup("s0", 100, now=5.0).hit   # refreshes idle clock
        assert not store.lookup("s0", 100, now=30.0).hit
        assert store.n_expired == 1
        assert not store._index

    def test_deterministic_tie_break_on_seq(self):
        store = _store(caps=(100, 0.0001, 0.0001))
        store.put("a", 80, BPT, "hack", now=0.0)
        store.put("b", 80, BPT, "hack", now=0.0)      # same timestamps
        assert "b" in store._index and "a" not in store._index


class TestStats:
    def test_stats_shape_and_accounting(self):
        store = KVStoreSpec.parse("tiered?dram_gb=8").build()
        assert [t.spec.name for t in store.tiers] == ["hbm", "dram", "pool"]
        assert store.tiers[2].latency_s == TIER_LATENCY_S["pool"]
        store.put("s0", 1000, 50_000.0, "hack", now=0.0)
        store.lookup("s0", 600, now=1.0)
        store.lookup("s1", 600, now=2.0)
        stats = store.stats()
        assert stats["lookups"] == 2 and stats["hits"] == 1
        assert stats["hit_rate"] == 0.5
        assert stats["prefill_tokens_skipped"] == 600
        assert stats["entries"] == 1
        assert stats["dropped"] == 0 and stats["expired"] == 0
        hbm = stats["tiers"]["hbm"]
        assert hbm["capacity_gb"] == pytest.approx(4.0)
        assert hbm["used_gb"] == pytest.approx(0.05)
        assert 0 < hbm["occupancy"] < 1
        assert hbm["hits"] == 1 and hbm["hit_rate"] == 0.5
        assert hbm["bytes_read"] == pytest.approx(600 * 50_000.0)
        assert hbm["read_s"] > 0 and hbm["write_s"] > 0

    def test_empty_tier_list_rejected(self):
        with pytest.raises(ValueError, match="at least one tier"):
            TieredKVStore([], LRUEviction())
