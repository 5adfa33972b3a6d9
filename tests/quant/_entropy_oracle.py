"""Reference arithmetic coder for the tests of :mod:`repro.quant.entropy`.

This is the class-based Witten–Neal–Cleary coder the package shipped
before its encoder and decoder became two tight loops: one symbol per
call, one bit per renormalisation step and a linear scan of the
frequency table.  It is kept unchanged, so the rewrite can be checked
byte for byte against it.
"""

from __future__ import annotations

import numpy as np

_PRECISION = 32
_FULL = (1 << _PRECISION) - 1
_HALF = 1 << (_PRECISION - 1)
_QUARTER = 1 << (_PRECISION - 2)
_THREE_QUARTER = _HALF + _QUARTER


class _AdaptiveModel:
    """Order-0 adaptive frequency model with Laplace (add-one) counts."""

    def __init__(self, n_symbols: int) -> None:
        if n_symbols < 1:
            raise ValueError(f"alphabet must be non-empty, got {n_symbols}")
        self.counts = [1] * n_symbols
        self.total = n_symbols

    def cumulative(self, symbol: int) -> tuple[int, int]:
        """(cumulative count below symbol, count of symbol)."""
        low = sum(self.counts[:symbol])
        return low, self.counts[symbol]

    def update(self, symbol: int) -> None:
        self.counts[symbol] += 1
        self.total += 1

    def find(self, target: int) -> tuple[int, int, int]:
        """Symbol whose cumulative interval contains ``target``."""
        acc = 0
        for symbol, count in enumerate(self.counts):
            if acc + count > target:
                return symbol, acc, count
            acc += count
        raise ValueError("target outside cumulative range")  # pragma: no cover


class _BitWriter:
    def __init__(self) -> None:
        self._bytes = bytearray()
        self._bit_count = 0
        self._current = 0

    def write(self, bit: int) -> None:
        self._current = (self._current << 1) | bit
        self._bit_count += 1
        if self._bit_count == 8:
            self._bytes.append(self._current)
            self._current = 0
            self._bit_count = 0

    def getvalue(self) -> bytes:
        if self._bit_count:
            return bytes(self._bytes) + bytes(
                [self._current << (8 - self._bit_count)]
            )
        return bytes(self._bytes)


class _BitReader:
    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    def read(self) -> int:
        byte_idx, bit_idx = divmod(self._pos, 8)
        self._pos += 1
        if byte_idx >= len(self._data):
            return 0  # trailing zeros past the end of the stream
        return (self._data[byte_idx] >> (7 - bit_idx)) & 1


class ArithmeticEncoder:
    """Streaming arithmetic encoder over a fixed alphabet."""

    def __init__(self, n_symbols: int) -> None:
        self._model = _AdaptiveModel(n_symbols)
        self._writer = _BitWriter()
        self._low = 0
        self._high = _FULL
        self._pending = 0

    def encode_symbol(self, symbol: int) -> None:
        cum_low, count = self._model.cumulative(symbol)
        total = self._model.total
        span = self._high - self._low + 1
        self._high = self._low + span * (cum_low + count) // total - 1
        self._low = self._low + span * cum_low // total
        self._model.update(symbol)

        while True:
            if self._high < _HALF:
                self._emit(0)
            elif self._low >= _HALF:
                self._emit(1)
                self._low -= _HALF
                self._high -= _HALF
            elif self._low >= _QUARTER and self._high < _THREE_QUARTER:
                self._pending += 1
                self._low -= _QUARTER
                self._high -= _QUARTER
            else:
                break
            self._low *= 2
            self._high = self._high * 2 + 1

    def finish(self) -> bytes:
        """Flush the final interval and return the bitstream."""
        self._pending += 1
        self._emit(0 if self._low < _QUARTER else 1)
        return self._writer.getvalue()

    def _emit(self, bit: int) -> None:
        self._writer.write(bit)
        while self._pending:
            self._writer.write(1 - bit)
            self._pending -= 1


class ArithmeticDecoder:
    """Mirror of :class:`ArithmeticEncoder`."""

    def __init__(self, data: bytes, n_symbols: int) -> None:
        self._model = _AdaptiveModel(n_symbols)
        self._reader = _BitReader(data)
        self._low = 0
        self._high = _FULL
        self._code = 0
        for _ in range(_PRECISION):
            self._code = (self._code << 1) | self._reader.read()

    def decode_symbol(self) -> int:
        total = self._model.total
        span = self._high - self._low + 1
        target = ((self._code - self._low + 1) * total - 1) // span
        symbol, cum_low, count = self._model.find(target)
        self._high = self._low + span * (cum_low + count) // total - 1
        self._low = self._low + span * cum_low // total
        self._model.update(symbol)

        while True:
            if self._high < _HALF:
                pass
            elif self._low >= _HALF:
                self._low -= _HALF
                self._high -= _HALF
                self._code -= _HALF
            elif self._low >= _QUARTER and self._high < _THREE_QUARTER:
                self._low -= _QUARTER
                self._high -= _QUARTER
                self._code -= _QUARTER
            else:
                break
            self._low *= 2
            self._high = self._high * 2 + 1
            self._code = self._code * 2 + self._reader.read()
        return symbol


def encode(symbols, n_symbols: int) -> bytes:
    """Encode every symbol in turn (no input checks)."""
    encoder = ArithmeticEncoder(n_symbols)
    for symbol in np.asarray(symbols).reshape(-1):
        encoder.encode_symbol(int(symbol))
    return encoder.finish()


def decode(data: bytes, n_values: int, n_symbols: int) -> np.ndarray:
    """Decode ``n_values`` symbols one call at a time."""
    decoder = ArithmeticDecoder(data, n_symbols)
    return np.array([decoder.decode_symbol() for _ in range(n_values)],
                    dtype=np.int64)
