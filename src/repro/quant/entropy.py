"""Adaptive binary-fraction arithmetic coding.

CacheGen (SIGCOMM'24) encodes quantized KV deltas into a compact
bitstream with arithmetic coding; this module provides the codec our
CacheGen-style comparator uses.  It is the classic Witten–Neal–Cleary
integer arithmetic coder at 32-bit precision with an adaptive order-0
frequency model: both sides start from uniform (add-one) counts and
update after every symbol, so no table needs to be transmitted.

Each side is one loop over local integers, and the bitstream is the
one a symbol-at-a-time, bit-at-a-time coder writes:

* **Bulk renormalisation.**  After a symbol narrows the interval, the
  shared leading bits of ``low`` and ``high`` (``32 - (low ^ high)
  .bit_length()`` of them) leave in one shift, and so does the run of
  underflow (E3) steps that follows, counted from the leading ones of
  ``low & ~high``.
* **Chunked model.**  The encoder knows every symbol up front, so numpy
  computes each symbol's cumulative bounds ``_CHUNK_CELLS`` table cells
  (symbols × alphabet) at a time, carrying the cumulative table from
  chunk to chunk: the working set is one chunk's table, however long
  the stream.  The decoder keeps a running ``n_symbols + 1``-entry
  cumulative table and finds each symbol in it by bisection.
* **Word-sized bit I/O.**  Output bits gather in a Python int flushed to
  a ``bytearray``; the decoder reads the stream 64 bits at a time into
  the bits below its code value, and reads zeros past the end.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import count

import numpy as np

__all__ = ["encode", "decode"]

_PRECISION = 32
_FULL = (1 << _PRECISION) - 1
_HALF = 1 << (_PRECISION - 1)
_QUARTER = 1 << (_PRECISION - 2)
_THREE_QUARTER = _HALF + _QUARTER
_LOW_BITS = _HALF - 1  # every bit below the top one

#: Cells (symbols × alphabet entries) of the encoder's model table per
#: numpy chunk.
_CHUNK_CELLS = 1 << 12


def _model_bounds(values: np.ndarray, n_symbols: int):
    """Yield each symbol's ``(cum_low, cum_high)`` under the adaptive
    model, as two lists per chunk of ``values``.

    ``table[i, c]`` is the model's count of symbols below ``c`` once
    row ``i`` is counted: ``c`` add-one counts, plus every earlier
    symbol below ``c``.  Row ``i``'s symbol ``s`` does not change
    column ``s``, and adds one to column ``s + 1``.
    """
    rows = max(1, _CHUNK_CELLS // (n_symbols + 1))
    cumulative = np.arange(n_symbols + 1, dtype=np.int64)
    edges = np.arange(-1, n_symbols)
    for start in range(0, values.size, rows):
        chunk = values[start:start + rows]
        table = np.cumsum(chunk[:, None] <= edges, axis=0, dtype=np.int64)
        table += cumulative
        index = np.arange(chunk.size)
        yield (table[index, chunk].tolist(),
               (table[index, chunk + 1] - 1).tolist())
        cumulative = table[-1]


def encode(symbols: np.ndarray, n_symbols: int) -> bytes:
    """Encode a 1-D array of integer symbols into a bitstream.

    Every symbol must be a whole number in ``[0, n_symbols)``; anything
    else raises :class:`ValueError` before a bit is written (the coder
    would otherwise wrap a negative symbol around the alphabet or
    truncate a fraction, and decode something else).
    """
    if n_symbols < 1:
        raise ValueError(f"alphabet must be non-empty, got {n_symbols}")
    values = np.asarray(symbols).reshape(-1)
    if values.size:
        if values.dtype.kind not in "biuf":
            raise ValueError(
                f"symbols must be numbers, got dtype {values.dtype}")
        if values.dtype.kind == "f" and not np.array_equal(
                values, np.floor(values)):
            raise ValueError("symbols must be whole numbers, got a "
                             "fraction or NaN")
        low, high = values.min(), values.max()
        if low < 0 or high >= n_symbols:
            raise ValueError(f"symbols must lie in [0, {n_symbols}), got "
                             f"values from {low} to {high}")
    values = values.astype(np.int64, copy=False)

    out = bytearray()
    bits = n_bits = 0  # output not yet flushed to ``out``
    low, high, pending = 0, _FULL, 0
    totals = count(n_symbols)
    for cum_lows, cum_highs in _model_bounds(values, n_symbols):
        for cum_low, cum_high, total in zip(cum_lows, cum_highs, totals):
            span = high - low + 1
            high = low + span * cum_high // total - 1
            low += span * cum_low // total
            shared = low ^ high
            if shared < _HALF:
                # E1/E2: the shared prefix is settled.  Its first bit is
                # followed by the pending underflow bits, inverted.
                drop = shared.bit_length()
                shift = _PRECISION - drop
                prefix = low >> drop
                low = low << shift & _FULL
                high = (high + 1 << shift) - 1 & _FULL
                if pending:
                    rest = shift - 1
                    head = (1 << pending) - 1 + (prefix >> rest)
                    prefix = head << rest | prefix & ((1 << rest) - 1)
                    shift += pending
                    pending = 0
                bits = bits << shift | prefix
                n_bits += shift
                if n_bits >= 64:
                    spare = n_bits & 7
                    out += (bits >> spare).to_bytes(n_bits >> 3, "big")
                    bits &= (1 << spare) - 1
                    n_bits = spare
            if low >= _QUARTER and high < _THREE_QUARTER:
                # E3: low = 01…, high = 10…; each step drops the second
                # bit of both and defers one output bit.
                straddle = low & ~high
                shift = _PRECISION - 1 - (straddle ^ _LOW_BITS).bit_length()
                pending += shift
                low = low << shift & _LOW_BITS
                high = (high + 1 << shift) - 1 & _LOW_BITS | _HALF

    # Flush: one more bit pins the final interval, then its pending bits.
    pending += 1
    bits = bits << (pending + 1) | (1 << pending) - (low < _QUARTER)
    n_bits += pending + 1
    pad = -n_bits & 7
    out += (bits << pad).to_bytes((n_bits + pad) >> 3, "big")
    return bytes(out)


def decode(data: bytes, n_values: int, n_symbols: int) -> np.ndarray:
    """Decode ``n_values`` symbols from a bitstream.

    Bits past the end of ``data`` read as zeros, so a truncated or
    foreign stream decodes to some symbols rather than raising.
    """
    if n_symbols < 1:
        raise ValueError(f"alphabet must be non-empty, got {n_symbols}")
    if n_values < 0:
        raise ValueError(f"n_values must be non-negative, got {n_values}")
    data = bytes(data)
    out = np.empty(n_values, dtype=np.int64)
    # The running cumulative table ``cum`` (the count of symbols below
    # ``j``), split at the alphabet's centre, where CacheGen's delta
    # codes concentrate: ``below[j] = cum[j]`` for ``j <= mid`` and
    # ``above[k] = cum[mid + 1 + k] - total``.  Counting a symbol then
    # changes only the entries between it and the centre.
    mid = n_symbols // 2
    below = list(range(mid + 1))
    above = list(range(mid + 1 - n_symbols, 1))

    # ``value`` is code - low followed by the ``n_ahead`` stream bits
    # read ahead of it.
    value = int.from_bytes(data[:8].ljust(8, b"\0"), "big")
    n_ahead, next_byte = 64 - _PRECISION, 8
    low, high, total = 0, _FULL, n_symbols
    for i in range(n_values):
        span = high - low + 1
        target = (((value >> n_ahead) + 1) * total - 1) // span
        if target < below[mid]:
            symbol = bisect_right(below, target) - 1
            cum_low, cum_high = below[symbol], below[symbol + 1]
            for j in range(symbol + 1, mid + 1):
                below[j] += 1
        else:
            k = bisect_right(above, target - total)
            symbol = mid + k
            cum_low = above[k - 1] + total if k else below[mid]
            cum_high = above[k] + total
            for j in range(k):
                above[j] -= 1
        out[i] = symbol
        high = low + span * cum_high // total - 1
        step = span * cum_low // total
        low += step
        value -= step << n_ahead
        total += 1
        shared = low ^ high
        if shared < _HALF:
            shift = _PRECISION - shared.bit_length()
            low = low << shift & _FULL
            high = (high + 1 << shift) - 1 & _FULL
            n_ahead -= shift
        if low >= _QUARTER and high < _THREE_QUARTER:
            straddle = low & ~high
            shift = _PRECISION - 1 - (straddle ^ _LOW_BITS).bit_length()
            low = low << shift & _LOW_BITS
            high = (high + 1 << shift) - 1 & _LOW_BITS | _HALF
            n_ahead -= shift
        if n_ahead < 0:
            word = data[next_byte:next_byte + 8].ljust(8, b"\0")
            value = value << 64 | int.from_bytes(word, "big")
            n_ahead += 64
            next_byte += 8
    return out
