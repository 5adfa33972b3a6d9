"""Lane-interleaved rANS coding.

CacheGen (SIGCOMM'24) entropy-codes quantized KV deltas into a compact
bitstream, with symbol tables it profiles offline; this module provides
the codec our CacheGen-style comparator uses.  It is range asymmetric
numeral systems (rANS, Duda) interleaved over lanes as in Giesen's
``ryg_rans``, with a static table per stream that the stream carries.

* **Lanes.**  Symbol ``i`` goes to lane ``i % lanes``.  A stream of
  ``n`` symbols has ``ceil(n / 512)`` lanes, at most 128, so the lane
  count follows from ``n`` alone and a short stream stores few states.
  Each lane keeps a 32-bit state in ``[2 ** 16, 2 ** 32)``, and numpy
  does each step across all lanes at once: the state update
  ``x = (x // f << bits) + x % f + c``, and at most one 16-bit word
  moved per lane, with the step's words in lane order.
* **Table.**  The stream's symbol counts, normalised to ``2 ** bits``
  slots (12 bits, widened for alphabets over 4096 symbols to the
  least power of two that holds them), every present symbol keeping
  at least one.
* **Layout.**  The table as varints (entry count, then a symbol gap and
  a frequency per present symbol), the lanes' final states as varints
  (above ``2 ** 16``; zero for a lane that never moved), then the words
  as little-endian 16-bit integers.  An empty stream is no bytes.

The decoder uses every byte: a stream that is short, has a bad header,
leaves words over or does not end in the encoder's initial states
raises :class:`ValueError`.
"""

from __future__ import annotations

import numpy as np

__all__ = ["encode", "decode"]

#: Most lanes a stream uses, and symbols per lane before one more is
#: added: a short stream keeps few lanes, so few final states.
_MAX_LANES = 128
_SYMBOLS_PER_LANE = 512
#: Table precision for alphabets up to ``2 ** 12`` symbols; larger
#: alphabets widen it to hold them, up to 16 bits.
_TABLE_BITS = 12
_MAX_SYMBOLS = 1 << 16
#: States live in ``[_STATE_LOW, 2 ** 32)`` and move 16-bit words.
_STATE_LOW = 1 << 16
_WORD_BITS = 16


def _check_symbols(symbols: np.ndarray, n_symbols: int) -> np.ndarray:
    """``symbols`` flattened to int64, once each is known to be a whole
    number in ``[0, n_symbols)``: unchecked, a negative symbol would
    wrap around the alphabet and a fraction would be truncated."""
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
    return values.astype(np.int64, copy=False)


def _lanes(n_values: int) -> int:
    """Lanes of an ``n_values``-symbol stream (a function of its length
    alone, so the decoder needs no header field for it)."""
    return min(_MAX_LANES, max(1, -(-n_values // _SYMBOLS_PER_LANE)))


def _table_bits(n_symbols: int) -> int:
    return max(_TABLE_BITS, (n_symbols - 1).bit_length())


def _check_alphabet(n_symbols: int) -> None:
    if n_symbols < 1:
        raise ValueError(f"alphabet must be non-empty, got {n_symbols}")
    if n_symbols > _MAX_SYMBOLS:
        raise ValueError(f"alphabet must have at most {_MAX_SYMBOLS} "
                         f"symbols, got {n_symbols}")


def _normalise(counts: np.ndarray, total: int) -> np.ndarray:
    """Scale symbol counts to frequencies summing to ``total``.

    Every present symbol keeps at least one slot: each gets one, the
    other ``total - k`` slots are shared in proportion to the counts,
    and the rounding remainder goes to the largest fractions.
    """
    present = np.flatnonzero(counts)
    spare = total - present.size
    scaled = counts[present] * spare
    n_values = int(counts.sum())
    freq = scaled // n_values + 1
    rest = total - int(freq.sum())
    if rest:
        order = np.argsort(-(scaled % n_values), kind="stable")
        freq[order[:rest]] += 1
    out = np.zeros_like(counts)
    out[present] = freq
    return out


def _put_varint(value: int, out: bytearray) -> None:
    while value >= 0x80:
        out.append(value & 0x7F | 0x80)
        value >>= 7
    out.append(value)


def encode(symbols: np.ndarray, n_symbols: int) -> bytes:
    """Encode a 1-D array of integer symbols into a bitstream.

    Every symbol must be a whole number in ``[0, n_symbols)``; anything
    else raises :class:`ValueError` before a byte is written.
    """
    _check_alphabet(n_symbols)
    values = _check_symbols(symbols, n_symbols)
    n_values = values.size
    if not n_values:
        return b""
    bits = _table_bits(n_symbols)
    freq = _normalise(np.bincount(values, minlength=n_symbols), 1 << bits)
    cum = np.cumsum(freq) - freq

    out = bytearray()
    present = np.flatnonzero(freq).tolist()
    _put_varint(len(present) - 1, out)
    previous = -1
    for symbol in present:
        _put_varint(symbol - previous - 1, out)
        _put_varint(int(freq[symbol]) - 1, out)
        previous = symbol

    # rANS is last in, first out: code the steps backwards, so that the
    # decoder reads the words forwards.  Symbol ``i`` is lane ``i %
    # lanes``'s symbol at step ``i // lanes``; the last row may be short.
    lanes = _lanes(n_values)
    state = np.full(lanes, _STATE_LOW, dtype=np.int64)
    shift = 2 * _WORD_BITS - bits  # x < f << shift keeps x < 2 ** 32
    # At most one word per symbol, filled from the back.
    words = np.empty(n_values, dtype="<u2")
    first = n_values
    for start in range(lanes * ((n_values - 1) // lanes), -1, -lanes):
        row = values[start:start + lanes]
        f = freq[row]
        x = state[:row.size]
        spill = x >= f << shift
        n_spill = int(np.count_nonzero(spill))
        if n_spill:
            words[first - n_spill:first] = x[spill] & 0xFFFF
            first -= n_spill
            x[spill] >>= _WORD_BITS
        state[:row.size] = (x // f << bits) + x % f + cum[row]
    for x in (state - _STATE_LOW).tolist():
        _put_varint(x, out)
    out += words[first:].tobytes()
    return bytes(out)


def decode(data: bytes, n_values: int, n_symbols: int) -> np.ndarray:
    """Decode ``n_values`` symbols from a bitstream.

    A stream that is truncated, garbage or was written for another
    ``n_values`` or alphabet raises :class:`ValueError` naming what is
    wrong with it.
    """
    _check_alphabet(n_symbols)
    if n_values < 0:
        raise ValueError(f"n_values must be non-negative, got {n_values}")
    data = bytes(data)
    if not n_values:
        if data:
            raise ValueError(f"an empty stream has no bytes, got "
                             f"{len(data)}")
        return np.empty(0, dtype=np.int64)
    bits = _table_bits(n_symbols)
    total = 1 << bits
    pos = 0

    def varint(what: str) -> int:
        nonlocal pos
        value = 0
        for shift in range(0, 35, 7):
            if pos >= len(data):
                raise ValueError(f"stream is short: it ends inside the "
                                 f"{what}")
            byte = data[pos]
            pos += 1
            value |= (byte & 0x7F) << shift
            if byte < 0x80:
                return value
        raise ValueError(f"bad header: the {what} is not a varint")

    n_present = varint("table size") + 1
    if n_present > n_symbols:
        raise ValueError(f"bad header: {n_present} table entries for "
                         f"{n_symbols} symbols")
    freq = np.zeros(n_symbols, dtype=np.int64)
    symbol = -1
    for _ in range(n_present):
        symbol += varint("table") + 1
        weight = varint("table") + 1
        if symbol >= n_symbols or weight > total:
            raise ValueError(f"bad header: table entry ({symbol}, "
                             f"{weight}) outside {n_symbols} symbols and "
                             f"{total} slots")
        freq[symbol] = weight
    if freq.sum() != total:
        raise ValueError(f"bad header: table frequencies sum to "
                         f"{freq.sum()}, not {total}")
    lanes = _lanes(n_values)
    state = np.array([varint("final states") for _ in range(lanes)],
                     dtype=np.int64) + _STATE_LOW
    if state.max() >> 2 * _WORD_BITS:
        raise ValueError("final state out of range: above 2 ** 32")
    if (len(data) - pos) % 2:
        raise ValueError("stream is short: it ends inside a word")
    words = np.frombuffer(data, "<u2", offset=pos)

    cum = np.cumsum(freq) - freq
    slot_symbol = np.repeat(np.arange(n_symbols), freq)
    mask = total - 1
    out = np.empty(n_values, dtype=np.int64)
    read = 0
    for start in range(0, n_values, lanes):
        x = state[:n_values - start]
        slot = x & mask
        row = slot_symbol[slot]
        out[start:start + lanes] = row
        x = freq[row] * (x >> bits) + slot - cum[row]
        short = x < _STATE_LOW
        n_short = int(np.count_nonzero(short))
        if n_short:
            if read + n_short > words.size:
                raise ValueError(f"stream is short: too few words at "
                                 f"symbol {start}")
            x[short] = x[short] << _WORD_BITS | words[read:read + n_short]
            read += n_short
        state[:x.size] = x
    if read < words.size:
        raise ValueError(f"{words.size - read} words left over after "
                         f"{n_values} symbols")
    if (state != _STATE_LOW).any():
        raise ValueError("corrupt stream: the lanes do not end in their "
                         "initial state")
    return out
