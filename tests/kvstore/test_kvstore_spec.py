"""KV-store spec grammar, registries and canonicalization."""

import pytest

from repro.kvstore import (
    DEFAULT_EVICTION,
    DEFAULT_STORE,
    EvictionPolicy,
    EvictionSpec,
    KVStoreSpec,
    TieredKVStore,
    eviction_policies,
    get_eviction_policy,
    get_kvstore_family,
    kvstore_families,
    register_eviction,
)
from repro.spec import split_list


class TestGrammar:
    def test_bare_store(self):
        spec = KVStoreSpec.parse("tiered")
        assert spec.kind == "tiered"
        assert spec.params == ()
        assert spec.eviction is None
        assert spec.canonical() == "tiered"

    def test_params_canonicalize_sorted_float(self):
        spec = KVStoreSpec.parse("tiered?pool_gb=64,dram_gb=8")
        assert spec.canonical() == "tiered?dram_gb=8.0,pool_gb=64.0"

    def test_bare_eviction_implies_default_store(self):
        spec = KVStoreSpec.parse("lfu")
        assert spec.kind == DEFAULT_STORE
        assert spec.eviction.kind == "lfu"
        assert spec.canonical() == "tiered+lfu"

    def test_both_parts_with_params(self):
        spec = KVStoreSpec.parse("tiered?pool_gb=64+ttl?seconds=120")
        assert spec.canonical() == "tiered?pool_gb=64.0+ttl?seconds=120.0"

    def test_explicit_default_param_is_kept(self):
        """ttl?seconds=300 stays distinct from bare ttl in the string."""
        assert KVStoreSpec.canonical_of("ttl?seconds=300") == \
            "tiered+ttl?seconds=300.0"
        assert KVStoreSpec.canonical_of("ttl") == "tiered+ttl"

    def test_two_store_families_rejected(self):
        with pytest.raises(ValueError, match="two store families"):
            KVStoreSpec.parse("tiered+tiered")

    def test_two_eviction_policies_rejected(self):
        with pytest.raises(ValueError, match="two eviction policies"):
            KVStoreSpec.parse("lru+lfu")

    def test_unknown_family_suggests(self):
        with pytest.raises(ValueError, match="did you mean 'tiered'"):
            KVStoreSpec.parse("tierd")

    def test_unknown_param_suggests(self):
        with pytest.raises(ValueError, match="dram_gb"):
            KVStoreSpec.parse("tiered?dram=8")

    def test_duplicate_param_rejected(self):
        with pytest.raises(ValueError, match="twice"):
            KVStoreSpec.parse("tiered?dram_gb=8,dram_gb=9")

    def test_non_numeric_param_rejected(self):
        with pytest.raises(ValueError, match="expects a number"):
            KVStoreSpec.parse("tiered?dram_gb=big")

    def test_malformed_pair_rejected(self):
        with pytest.raises(ValueError, match="grammar"):
            KVStoreSpec.parse("tiered?dram_gb")

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            KVStoreSpec.parse("tiered?dram_gb=-1")

    def test_all_tiers_empty_rejected(self):
        with pytest.raises(ValueError):
            KVStoreSpec.parse("tiered?hbm_gb=0,dram_gb=0,pool_gb=0")

    def test_kvstore_spec_passthrough_and_types(self):
        spec = KVStoreSpec.parse("tiered?dram_gb=8")
        assert KVStoreSpec.from_reference(spec) is spec
        assert KVStoreSpec.from_reference("tiered?dram_gb=8") == spec
        with pytest.raises(TypeError):
            KVStoreSpec.from_reference(42)

    def test_split_list_keeps_params_attached(self):
        assert split_list(
            "lru,tiered?dram_gb=8,pool_gb=64+lfu,ttl?seconds=60") == \
            ["lru", "tiered?dram_gb=8,pool_gb=64+lfu", "ttl?seconds=60"]


class TestSpecObjects:
    def test_with_params_overrides_and_drops(self):
        spec = KVStoreSpec.parse("tiered?dram_gb=8+lfu")
        bigger = spec.with_params(dram_gb=32.0, pool_gb=64.0)
        assert bigger.canonical() == "tiered?dram_gb=32.0,pool_gb=64.0+lfu"
        assert bigger.with_params(dram_gb=None, pool_gb=None).canonical() \
            == "tiered+lfu"

    def test_resolved_params_overlay_defaults(self):
        spec = KVStoreSpec.parse("tiered?dram_gb=8")
        p = spec.resolved_params()
        assert p["dram_gb"] == 8.0
        assert p["hbm_gb"] == \
            get_kvstore_family("tiered").params["hbm_gb"].default

    def test_build_returns_store_with_tiers_and_eviction(self):
        store = KVStoreSpec.parse("tiered?hbm_gb=0,dram_gb=1+lfu").build()
        assert isinstance(store, TieredKVStore)
        # a tier with capacity 0 is absent
        assert [t.spec.name for t in store.tiers] == ["dram", "pool"]
        assert store.eviction.name == "lfu"

    def test_default_eviction_is_lru(self):
        assert KVStoreSpec.parse("tiered").build().eviction.name \
            == DEFAULT_EVICTION

    def test_of_accepts_eviction_string(self):
        spec = KVStoreSpec.of("tiered", eviction="ttl?seconds=60",
                              dram_gb=2.0)
        assert spec.canonical() == "tiered?dram_gb=2.0+ttl?seconds=60.0"

    def test_eviction_spec_validates(self):
        with pytest.raises(ValueError, match="positive"):
            EvictionSpec.of("ttl", seconds=0)


class TestRegistries:
    def test_builtins_present(self):
        assert set(eviction_policies()) >= {"lru", "lfu", "ttl"}
        assert "tiered" in kvstore_families()
        for family in kvstore_families().values():
            assert family.description
            assert family.signature().startswith(family.name)
        for policy in eviction_policies().values():
            assert policy.description

    def test_has_kvstore_families(self):
        assert KVStoreSpec.known("tiered?dram_gb=8+lfu")
        assert KVStoreSpec.known("ttl?seconds=60")
        assert not KVStoreSpec.known("mystery_store")
        assert not KVStoreSpec.known("tiered+mystery_eviction")

    def test_register_open_and_duplicate_guard(self):
        @register_eviction
        class NewestFirst(EvictionPolicy):
            name = "newest_first_test"
            description = "anti-policy: evict the most recent entry"

            def victim(self, entries, now):
                return max(entries, key=lambda e: e.seq)

        assert KVStoreSpec.parse("tiered+newest_first_test").build() \
            .eviction.name == "newest_first_test"
        with pytest.raises(ValueError, match="already registered"):
            register_eviction(NewestFirst)
        register_eviction(replace=True)(NewestFirst)   # explicit override

    def test_lookup_suggestions_cross_role(self):
        """A store name mistyped as an eviction (or vice versa) still
        gets a useful suggestion — the roles share one namespace."""
        with pytest.raises(ValueError, match="unknown eviction"):
            get_eviction_policy("tieredd")
