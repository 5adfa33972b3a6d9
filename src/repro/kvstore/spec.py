"""Declarative KV-store definitions: tiers, eviction, and the grammar.

A :class:`KVStoreSpec` describes one KV cache hierarchy — a **store
family** (capacities and per-tier bandwidths) paired with an **eviction
family** (which entry leaves a full tier) — in the same open-registry,
``family?k=v`` style as methods, arrivals and schedulers::

    tiered                                   # all defaults, lru eviction
    tiered?dram_gb=8.0,pool_gb=64.0          # smaller DRAM/pool tiers
    lfu                                      # default tiers, lfu eviction
    tiered?pool_gb=64.0+ttl?seconds=120.0    # both, ?k=v attaches to each

Like the scheduler grammar, each ``+``-part's role is inferred from its
family name (store vs. eviction; names are unique across both
registries), so either part may stand alone.  Specs are frozen,
JSON-friendly, and canonicalize params-only-explicit + sorted — what
you write is what serializes, keys and slugs.

Eviction is an *open* registry: subclass :class:`EvictionPolicy`,
decorate with :func:`register_eviction`, and the family is usable from
``--kvstore``, scenarios and sweep axes (see
``examples/kvstore_tiers.py``).  Store families are open the same way
(:func:`register_kvstore_family`); the built-in ``tiered`` family is
the three-tier GPU HBM → host DRAM → pooled-store hierarchy.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..spec import Family, Param, Policy, Registry, Spec, names_all, \
    parse_clause, share_namespace, split_list, split_plus

__all__ = [
    "TierParam",
    "EvictionParam",
    "EvictionPolicy",
    "EvictionSpec",
    "KVStoreFamily",
    "KVStoreSpec",
    "register_eviction",
    "register_kvstore_family",
    "get_eviction_policy",
    "get_kvstore_family",
    "eviction_policies",
    "kvstore_families",
    "has_kvstore_families",
    "kvstore_spec",
    "parse_kvstore",
    "canonical_kvstore",
    "split_kvstore_list",
    "DEFAULT_STORE",
    "DEFAULT_EVICTION",
]

#: Defaults when a part is omitted from the grammar.
DEFAULT_STORE = "tiered"
DEFAULT_EVICTION = "lru"

#: Eviction- and store-family parameters: the shared
#: :class:`~repro.spec.Param`.
EvictionParam = TierParam = Param


class EvictionPolicy(Policy):
    """Decides which cache entry leaves a full tier.

    Subclasses set :attr:`name`, :attr:`description` and :attr:`params`
    and are registered with :func:`register_eviction`.  Instances are
    created per store (they receive resolved parameters as ``p``) and
    see :class:`~repro.kvstore.store.CacheEntry` objects: each carries
    ``last_access_s``, ``n_hits``, ``created_s``, ``nbytes`` and a
    monotone insertion ``seq`` for deterministic tie-breaking.
    """

    def victim(self, entries, now: float):
        """The entry to push out of a full tier (``entries`` is a
        non-empty sequence of that tier's :class:`CacheEntry`)."""
        raise NotImplementedError

    def expired(self, entry, now: float) -> bool:
        """Whether ``entry`` should be dropped regardless of capacity
        (TTL-style policies override; default: never)."""
        return False


class KVStoreFamily(Family):
    """One cache-hierarchy shape: parameters plus a store constructor.

    Subclasses set :attr:`params` (capacities in GB, bandwidths in
    GB/s — floats, so every parameter is sweepable via
    ``kvstore.<param>`` axes) and implement :meth:`build`, returning a
    runtime store exposing the :class:`~repro.kvstore.store
    .TieredKVStore` interface (``lookup``/``put``/``occupancy``/
    ``stats``).
    """

    def build(self, eviction: EvictionPolicy, **params: float):
        """A fresh store instance (stores hold per-run state)."""
        raise NotImplementedError


_STORES = Registry("kvstore family", KVStoreFamily, role="kvstore",
                   key="kvstore_families", instances=True)
_EVICTIONS = Registry("eviction policy", EvictionPolicy, role="eviction",
                      key="eviction_policies")
# A bare name in the pair grammar must resolve to exactly one role.
share_namespace(_STORES, _EVICTIONS)

register_eviction = _EVICTIONS.register
register_kvstore_family = _STORES.register
get_eviction_policy = _EVICTIONS.get
get_kvstore_family = _STORES.get
eviction_policies = _EVICTIONS.catalog
kvstore_families = _STORES.catalog


# -- the specs ----------------------------------------------------------------

@dataclass(frozen=True)
class EvictionSpec(Spec):
    """One declarative eviction reference: family + parameters."""

    kind: str
    params: tuple[tuple[str, object], ...] = ()

    registry = _EVICTIONS


@dataclass(frozen=True)
class KVStoreSpec(Spec):
    """A store family + parameters, paired with an eviction spec.

    ``eviction=None`` keeps the default (``lru``) and canonicalizes /
    serializes without it, so what you write is what you get.
    """

    kind: str = DEFAULT_STORE
    params: tuple[tuple[str, object], ...] = ()
    eviction: EvictionSpec | None = None

    registry = _STORES
    registries = (_STORES, _EVICTIONS)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.eviction is not None \
                and not isinstance(self.eviction, EvictionSpec):
            raise ValueError(
                f"eviction must be an EvictionSpec or None, got "
                f"{type(self.eviction).__name__}"
            )

    @classmethod
    def of(cls, kind: str = DEFAULT_STORE, eviction=None,
           **params) -> "KVStoreSpec":
        if isinstance(eviction, str):
            eviction = EvictionSpec.parse(eviction)
        return cls(kind, tuple(params.items()), eviction)

    def build(self):
        """A fresh runtime store (with a fresh eviction policy)."""
        eviction = (self.eviction or EvictionSpec(DEFAULT_EVICTION)).build()
        return self.entry().build(eviction, **self.resolved_params())

    def canonical(self) -> str:
        """Compact string form, e.g. ``tiered?dram_gb=8.0+lfu``."""
        head = super().canonical()
        if self.eviction is None:
            return head
        return f"{head}+{self.eviction.canonical()}"

    @classmethod
    def parse(cls, text: str) -> "KVStoreSpec":
        """Parse ``store[?k=v,…][+eviction[?k=v,…]]``.  Each part's role
        is inferred from its family name; either part may stand alone."""
        store = eviction = None
        for part in split_plus(text, "kvstore",
                               "store[?k=v,…][+eviction[?k=v,…]] (either "
                               "part may stand alone)"):
            registry, kind, pairs = parse_clause(
                part, cls.registries, "kvstore family", "kvstore")
            if registry is _STORES:
                if store is not None:
                    raise ValueError(
                        f"kvstore {text!r} names two store families "
                        f"({store[0]!r} and {kind!r})"
                    )
                store = (kind, pairs)
            else:
                if eviction is not None:
                    raise ValueError(
                        f"kvstore {text!r} names two eviction policies "
                        f"({eviction.kind!r} and {kind!r})"
                    )
                eviction = EvictionSpec(kind, pairs)
        kind, pairs = store if store is not None else (DEFAULT_STORE, ())
        return cls(kind, pairs, eviction)

    @classmethod
    def known(cls, reference: str) -> bool:
        """True when every ``+``-part of a string kvstore reference
        names a store or eviction family registered in this process
        (parameters may still be invalid)."""
        return names_all(reference, cls.registries)


has_kvstore_families = KVStoreSpec.known
kvstore_spec = KVStoreSpec.from_reference
parse_kvstore = KVStoreSpec.parse
canonical_kvstore = KVStoreSpec.canonical_of
split_kvstore_list = split_list


# -- built-in eviction policies -----------------------------------------------

@register_eviction
class LRUEviction(EvictionPolicy):
    name = "lru"
    description = "evict the least-recently-used entry (ties: oldest)"

    def victim(self, entries, now):
        return min(entries, key=lambda e: (e.last_access_s, e.seq))


@register_eviction
class LFUEviction(EvictionPolicy):
    name = "lfu"
    description = "evict the least-frequently-hit entry (ties: LRU)"

    def victim(self, entries, now):
        return min(entries, key=lambda e: (e.n_hits, e.last_access_s, e.seq))


@register_eviction
class TTLEviction(EvictionPolicy):
    name = "ttl"
    description = ("drop entries idle longer than ``seconds`` (session "
                   "lifetime); capacity pressure falls back to LRU")
    params = {
        "seconds": EvictionParam(300.0, "idle time before an entry expires"),
    }

    @classmethod
    def validate(cls, *, seconds):
        if seconds <= 0:
            raise ValueError(f"ttl seconds must be positive, got {seconds}")

    def expired(self, entry, now):
        return now - entry.last_access_s > self.p["seconds"]

    def victim(self, entries, now):
        return min(entries, key=lambda e: (e.last_access_s, e.seq))


# -- built-in store family ----------------------------------------------------

@register_kvstore_family
class TieredStoreFamily(KVStoreFamily):
    """GPU HBM → host DRAM → pooled store, Mooncake/DADI-style.

    Capacities are gigabytes (a tier with capacity 0 is absent);
    bandwidths are gigabytes per second.  The defaults sketch a slice
    of HBM set aside for prefix KV, PCIe-limited host DRAM staging, and
    a 100-GbE pooled store.
    """

    name = "tiered"
    description = ("three-tier prefix cache: GPU HBM, host DRAM, pooled "
                   "store (capacities GB, bandwidths GB/s)")
    params = {
        "hbm_gb": TierParam(4.0, "GPU HBM set aside for cached KV, GB"),
        "dram_gb": TierParam(32.0, "host DRAM tier capacity, GB"),
        "pool_gb": TierParam(256.0, "pooled-store tier capacity, GB"),
        "hbm_read": TierParam(1500.0, "HBM tier read bandwidth, GB/s"),
        "hbm_write": TierParam(1500.0, "HBM tier write bandwidth, GB/s"),
        "dram_read": TierParam(20.0, "DRAM tier read bandwidth, GB/s"),
        "dram_write": TierParam(20.0, "DRAM tier write bandwidth, GB/s"),
        "pool_read": TierParam(8.0, "pooled-store read bandwidth, GB/s"),
        "pool_write": TierParam(8.0, "pooled-store write bandwidth, GB/s"),
    }

    def validate(self, **p) -> None:
        for name in ("hbm_gb", "dram_gb", "pool_gb"):
            if p[name] < 0:
                raise ValueError(
                    f"tier capacity {name} must be >= 0, got {p[name]}"
                )
        if p["hbm_gb"] + p["dram_gb"] + p["pool_gb"] <= 0:
            raise ValueError("at least one tier needs capacity > 0")
        for name in ("hbm_read", "hbm_write", "dram_read", "dram_write",
                     "pool_read", "pool_write"):
            if p[name] <= 0:
                raise ValueError(
                    f"tier bandwidth {name} must be positive, got {p[name]}"
                )

    def build(self, eviction, **p):
        from .store import TierDef, TieredKVStore

        tiers = [
            TierDef("hbm", p["hbm_gb"] * 1e9, p["hbm_read"], p["hbm_write"]),
            TierDef("dram", p["dram_gb"] * 1e9, p["dram_read"],
                    p["dram_write"]),
            TierDef("pool", p["pool_gb"] * 1e9, p["pool_read"],
                    p["pool_write"]),
        ]
        return TieredKVStore([t for t in tiers if t.capacity_bytes > 0],
                             eviction)
