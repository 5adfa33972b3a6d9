"""Golden pin: the decode-time KV caches' outputs, bit for bit.

Each case hands off ``HANDOFF`` tokens in bulk (not a multiple of Π, so
the RQE tail is non-empty), then runs ``STEPS`` decode steps (append,
then attention) whose appends cross a V-block boundary.  It pins the
sha256 of every decode output and of the reconstructed ``(K̂, V̂)``, the
full :class:`CacheLedger`, and the byte accounting.  ``d_h = 96`` with
Π = 64 leaves a ragged K partition; ``d_h = 128`` does not.

The pins were recorded with the per-partition reference implementation
of ``quantize``/``homomorphic_matmul``; any storage or kernel rewrite
must reproduce them exactly.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.core.kv_cache import DequantizingKVCache, Fp16KVCache, HackKVCache

PI = 64
HANDOFF = 150   # 2 full V blocks + a 22-token tail
STEPS = 50      # token 192 completes the third block mid-decode


def _sha(*arrays) -> str:
    digest = hashlib.sha256()
    for arr in arrays:
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


def _make(kind: str, d: int):
    rng = np.random.default_rng(7)
    if kind == "fp16":
        return Fp16KVCache(d)
    if kind == "dequant":
        return DequantizingKVCache(d, partition_size=PI, rng=rng)
    se, rqe = {"hack": (True, True), "hack-nose": (False, True),
               "hack-norqe": (True, False),
               "hack-nose-norqe": (False, False)}[kind]
    return HackKVCache(d, partition_size=PI, enable_se=se, enable_rqe=rqe,
                       rng=rng)


def _fingerprint(kind: str, d: int) -> dict:
    rng = np.random.default_rng(d)
    n = HANDOFF + STEPS
    k = rng.normal(size=(n, d)) * np.linspace(0.5, 2.0, d) + 0.3
    v = rng.normal(size=(n, d)) + np.sin(np.arange(d))
    q = rng.normal(size=(STEPS, d))
    cache = _make(kind, d)
    cache.append_bulk(k[:HANDOFF], v[:HANDOFF])
    out = np.empty((STEPS, d))
    for i in range(STEPS):
        cache.append(k[HANDOFF + i], v[HANDOFF + i])
        out[i] = cache.attention(q[i])
    record = {"outputs": _sha(out), "materialize": _sha(*cache.materialize()),
              "ledger": dataclasses.asdict(cache.ledger),
              "kv_nbytes": cache.kv_nbytes()}
    if isinstance(cache, HackKVCache):
        record["sums_nbytes"] = cache.sums_nbytes()
        record["total_nbytes"] = cache.total_nbytes()
    return record


def _ledger(int_mm, fp_mm, approx, dequant, quant, requant):
    return {"int_matmul_flops": int_mm, "fp_matmul_flops": fp_mm,
            "approx_flops": approx, "dequant_flops": dequant,
            "quant_flops": quant, "requant_events": requant,
            "decode_iterations": STEPS}


GOLDEN = {
    ('fp16', 96): dict(
        outputs="280ec0b93b8a31aa7d4dd796361a1bfc27619107fb22844197499591ba5e0285",
        materialize="8bd667fd5f1ecf057ffe56d468ba69b6404412c09d5782e3f56c59859b1b524c",
        ledger=_ledger(0, 3369600, 0, 0, 0, 0),
        kv_nbytes=76800),
    ('fp16', 128): dict(
        outputs="a396986265b6699fe8bb0a4fd96ecd9a00c75367203cb48d7a500be5a5358185",
        materialize="80d424db6f0c8c3cf920af9ead9710b0a2c208b1d43ceeceeeba6f5f1524a460",
        ledger=_ledger(0, 4492800, 0, 0, 0, 0),
        kv_nbytes=102400),
    ('dequant', 96): dict(
        outputs="3c1a188ae42d30d85d7a4b9de380132ea8f9e5fa91e27bc2b9f3a56cfb6da881",
        materialize="4315b6feedb485f9abcd2d47bd8df92b84e23a76dd6f3b213590a096e35d46a0",
        ledger=_ledger(0, 3369600, 0, 3369600, 192000, 0),
        kv_nbytes=12800),
    ('dequant', 128): dict(
        outputs="fa8f3deef57b83596126620d7d325ca434c260a235d16923d6d507bc6395c22b",
        materialize="3c758bd97ad78eeec764992bb9c8a20029a4f2d7cf65d409f9a526f50736e28e",
        ledger=_ledger(0, 4492800, 0, 4492800, 256000, 0),
        kv_nbytes=16000),
    ('hack', 96): dict(
        outputs="f0fb876185d252d1575e786fa763f93e1d1254692d760d89bf6526b10979abd3",
        materialize="d8b8d84b204106482e98e3cc81a02e0adee8f5f143de6fd2a9874de5b09f6a7b",
        ledger=_ledger(3024192, 345408, 133951, 0, 247040, 0),
        kv_nbytes=12160, sums_nbytes=688, total_nbytes=14384),
    ('hack', 128): dict(
        outputs="5c366ac9e19a2d68cd3fca6601aa33dd4158f8e9ed1ae03dc67cce049c93abda",
        materialize="754e96264a2624a1c4af3492a7a847e83cac1d71bdfd136fa809e0a938806bdb",
        ledger=_ledger(4032256, 460544, 149951, 0, 317760, 0),
        kv_nbytes=15680, sums_nbytes=784, total_nbytes=18512),
    ('hack-nose', 96): dict(
        outputs="f0fb876185d252d1575e786fa763f93e1d1254692d760d89bf6526b10979abd3",
        materialize="d8b8d84b204106482e98e3cc81a02e0adee8f5f143de6fd2a9874de5b09f6a7b",
        ledger=_ledger(3024192, 345408, 1646047, 0, 247040, 0),
        kv_nbytes=12160, sums_nbytes=0, total_nbytes=13696),
    ('hack-nose', 128): dict(
        outputs="5c366ac9e19a2d68cd3fca6601aa33dd4158f8e9ed1ae03dc67cce049c93abda",
        materialize="754e96264a2624a1c4af3492a7a847e83cac1d71bdfd136fa809e0a938806bdb",
        ledger=_ledger(4032256, 460544, 2166079, 0, 317760, 0),
        kv_nbytes=15680, sums_nbytes=0, total_nbytes=17728),
    ('hack-norqe', 96): dict(
        outputs="0a9a3a17d835d794a2cecc5dd23c8a01634d565f55e0602ed796bce7f74aa955",
        materialize="92ed067bb1637eb61e841db2f4802bc2e4129efcd50a82d1152283cd83d2f940",
        ledger=_ledger(3369600, 0, 135750, 1166592, 3176355, 196),
        kv_nbytes=12736, sums_nbytes=688, total_nbytes=13424),
    ('hack-norqe', 128): dict(
        outputs="65380f86079cfd7ff51fe2cd2a5d7d8d4c5492cc0efb49afa18339143af037cf",
        materialize="00e6f933ed15a14ca348201bf75093e6b7920a4167bb2905b5d24e233dba84b6",
        ledger=_ledger(4492800, 0, 151750, 1555456, 4220515, 196),
        kv_nbytes=16448, sums_nbytes=784, total_nbytes=17232),
    ('hack-nose-norqe', 96): dict(
        outputs="0a9a3a17d835d794a2cecc5dd23c8a01634d565f55e0602ed796bce7f74aa955",
        materialize="92ed067bb1637eb61e841db2f4802bc2e4129efcd50a82d1152283cd83d2f940",
        ledger=_ledger(3369600, 0, 1820550, 1166592, 3176355, 196),
        kv_nbytes=12736, sums_nbytes=0, total_nbytes=12736),
    ('hack-nose-norqe', 128): dict(
        outputs="65380f86079cfd7ff51fe2cd2a5d7d8d4c5492cc0efb49afa18339143af037cf",
        materialize="00e6f933ed15a14ca348201bf75093e6b7920a4167bb2905b5d24e233dba84b6",
        ledger=_ledger(4492800, 0, 2398150, 1555456, 4220515, 196),
        kv_nbytes=16448, sums_nbytes=0, total_nbytes=16448),
}


@pytest.mark.parametrize("kind,d", sorted(GOLDEN))
def test_cache_outputs_match_golden(kind, d):
    assert _fingerprint(kind, d) == GOLDEN[kind, d]
