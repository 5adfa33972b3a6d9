"""Golden digests of the lane-interleaved rANS coder's bitstream.

The CacheGen comparator's ratio is the bitstream's length, and a stored
payload is only readable by the coder that wrote it, so
:func:`repro.quant.entropy.encode` must stay byte-identical across
rewrites.  Each case pins the SHA-256 and byte length of the encoder's
output for one fixed input; the inputs cover the ``kernels-decode``
plane, three alphabet sizes, the degenerate streams (no words at all
for a constant one) and a stream in which every lane moves a word on
every step.
"""

import hashlib

import numpy as np
import pytest

from repro.accuracy.kv_distributions import (
    K_DISTRIBUTION,
    synthetic_attention_inputs,
    synthetic_plane,
)
from repro.quant import CacheGenCompressor
from repro.quant.entropy import encode

#: case -> (byte length, SHA-256 of the bitstream)
GOLDEN = {
    "plane-seed1": (22856, "d7bbb44161589f8b6c1792f878658ddb"
                           "edc447275464bbe381105a94f8df8e5d"),
    "plane-seed2": (22990, "26cbb97efb787fcaff0645191648fbee"
                           "03febfeea87a905c26c1b4a483c75c0a"),
    "random-2": (657, "65da90015853d62d21a491de1c3225da"
                      "c52291cdc57d2d79eb85c53fb07800c9"),
    "random-16": (2579, "5fbfbb2370d3d88f5deaa955c8473b98"
                        "ede44b4c730606ad5ca9ff6a2c1f4b0e"),
    "random-256": (5520, "898fadf71d51e360d0d77b380908f6a3"
                         "5831f5debfa7f92e366730b47fbd0d48"),
    "empty": (0, "e3b0c44298fc1c149afbf4c8996fb924"
                 "27ae41e4649b934ca495991b7852b855"),
    "single": (5, "e8eceb6e9e599128f40adfc1bb3d313a"
                  "1937d33307c6324e3916c4dea23e0063"),
    "constant-4000": (12, "bccb4d7736047a8c6d8b32644925ef89"
                          "644eb9e49593bd1cb5c1693a280f9c21"),
    "every-step-renormalises": (262503, "30446a2d0b817257377ea8c0c2137d81"
                                        "0baaa70e0709ef7fdcb4384fb3285e6d"),
}


def plane_bitstream(seed: int) -> bytes:
    """The CacheGen bitstream of the ``kernels-decode`` plane, drawn as
    that workload draws it: after its Q/K/V streams, from one seed."""
    rng = np.random.default_rng(seed)
    synthetic_attention_inputs(2048 + 128, 128, rng, l_q=128)
    plane = synthetic_plane(512, 128, K_DISTRIBUTION, rng)
    payload = CacheGenCompressor().compress(plane).payload
    assert payload["n_delta_values"] == 61_440
    return payload["bitstream"]


def _random(n_symbols: int) -> bytes:
    rng = np.random.default_rng(n_symbols)
    return encode(rng.integers(0, n_symbols, size=5000), n_symbols)


def every_step_renormalises() -> np.ndarray:
    """Each of the 65,536 symbols once: the table gives every symbol
    one slot of 2 ** 16, so every lane moves a word on every step."""
    return np.random.default_rng(4).permutation(1 << 16)


_CASES = {
    "plane-seed1": lambda: plane_bitstream(1),
    "plane-seed2": lambda: plane_bitstream(2),
    "random-2": lambda: _random(2),
    "random-16": lambda: _random(16),
    "random-256": lambda: _random(256),
    "empty": lambda: encode(np.array([], dtype=np.int64), 16),
    "single": lambda: encode(np.array([5]), 16),
    "constant-4000": lambda: encode(np.full(4000, 7), 16),
    "every-step-renormalises":
        lambda: encode(every_step_renormalises(), 1 << 16),
}


def test_every_case_is_pinned():
    assert set(_CASES) == set(GOLDEN)


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_bitstream_is_pinned(case):
    data = _CASES[case]()
    assert (len(data), hashlib.sha256(data).hexdigest()) == GOLDEN[case]
