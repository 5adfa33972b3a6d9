"""Golden digests of the arithmetic coder's bitstream.

The CacheGen comparator's ratio is the bitstream's length, and a stored
payload is only readable by the coder that wrote it, so
:func:`repro.quant.entropy.encode` must stay byte-identical across
rewrites.  Each case pins the SHA-256 and byte length of the encoder's
output for one fixed input; the inputs cover the ``kernels-decode``
plane, three alphabet sizes, the degenerate streams, long runs of
shared-prefix (E1/E2) shifts and a long run of pending underflow (E3)
bits.
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

#: A 16-ary prefix chosen greedily so that the interval keeps
#: straddling the midpoint: 222 E3 bits are pending before one resolves.
_E3_PREFIX = [8, 8, 4, 8, 3, 5, 0, 0, 0, 0, 9, 8, 0, 15, 1, 3, 6, 4, 4, 9,
              3, 1, 9, 9, 6, 9, 3, 4, 5, 9, 3, 7, 2, 14, 3, 3, 1, 5, 0, 2,
              14, 15, 8, 4, 4, 8, 11, 4, 11, 3, 8, 8, 8, 8, 3, 0, 8, 9, 8, 2]

#: case -> (byte length, SHA-256 of the bitstream)
GOLDEN = {
    "plane-seed1": (22477, "e5be97edf8f4e0bf704ac61d32361ee3"
                           "eaf58b41e28c04a75efe5966c19c2ef1"),
    "plane-seed2": (22618, "380d040654d1fa90e30ebb8f66321276"
                           "4b07d2a2b65cad3da54e6e3a108e2911"),
    "random-2": (626, "6c0ee4a5a0d813cc9532e7a6c03b8eed"
                      "f011bd2be4ab9ca32af95f3deb29ea20"),
    "random-16": (2507, "773f739207298fc168079d7080ed0b90"
                        "b2280f83c2a4045839534e09944c8092"),
    "random-256": (5052, "bc16c7f246950f3bf374265fd02423dd"
                         "eedc1756e0abda5d77b3d92006483870"),
    "empty": (1, "c3641f8544d7c02f3580b07c0f9887f0"
                 "c6a27ff5ab1d4a3e29caf197cfc299ae"),
    "single": (1, "e632b7095b0bf32c260fa4c539e9fd7b"
                  "852d0de454e9be26f24d0d6f91d069d3"),
    "constant-4000": (18, "c82d37047c593e01bcf9ae685025fdb0"
                          "da1f026baf3ea27c4622e987477d5177"),
    "pending-e3": (284, "a88c5034ad8c2f163879e6dc92c49b5f"
                        "d4b339adb169ed57b7417060d0b73b40"),
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


def _pending_e3() -> bytes:
    tail = np.random.default_rng(3).integers(0, 16, size=500)
    return encode(np.concatenate([_E3_PREFIX, tail]), 16)


_CASES = {
    "plane-seed1": lambda: plane_bitstream(1),
    "plane-seed2": lambda: plane_bitstream(2),
    "random-2": lambda: _random(2),
    "random-16": lambda: _random(16),
    "random-256": lambda: _random(256),
    "empty": lambda: encode(np.array([], dtype=np.int64), 16),
    "single": lambda: encode(np.array([5]), 16),
    "constant-4000": lambda: encode(np.full(4000, 7), 16),
    "pending-e3": _pending_e3,
}


def test_every_case_is_pinned():
    assert set(_CASES) == set(GOLDEN)


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_bitstream_is_pinned(case):
    data = _CASES[case]()
    assert (len(data), hashlib.sha256(data).hexdigest()) == GOLDEN[case]
