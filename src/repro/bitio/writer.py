"""Sequential bit writer with the prefix codes used throughout the paper.

The paper (Definition 4) relies on two self-delimiting codes:

* the *hat* code ``ẑ = 1^|z| 0 z`` of length ``2|z| + 1``;
* the *prime* code ``z' = ̂|z| z`` — the hat code of the binary length
  of ``z`` followed by ``z`` itself — of length ``|z| + 2⌈log(|z|+1)⌉ + 1``.

On top of those we provide unary and Elias gamma/delta codes, which the
routing-table constructions (Theorem 1) and codecs use for small integers.
"""

from __future__ import annotations

from typing import Iterable

from repro.bitio.bitarray import BitArray
from repro.errors import BitstreamError

__all__ = ["BitWriter"]

BULK_RUN = 64
"""Values per word in the bulk codecs (``write_uints``/``read_uints``):
short enough that building the word stays linear, long enough that the
per-word overhead vanishes."""


class BitWriter:
    """Append-only writer producing a :class:`BitArray`.

    Whole bytes go straight into a ``bytearray``; the fewer than eight
    bits past the last whole byte wait in an integer accumulator.
    ``write_uint``, ``write_unary`` and ``write_bits`` append their whole
    field with one shift-or and flush the completed bytes with a single
    ``int.to_bytes``.
    """

    def __init__(self) -> None:
        self._buf = bytearray()
        # The bits past the last whole byte: their value and how many
        # there are (always fewer than eight).
        self._acc = 0
        self._pending = 0

    def __len__(self) -> int:
        return 8 * len(self._buf) + self._pending

    @property
    def bit_length(self) -> int:
        """Number of bits written so far."""
        return len(self)

    # -- primitive writes --------------------------------------------------

    def write_bit(self, bit: int) -> None:
        """Append a single bit (0 or 1)."""
        if bit not in (0, 1):
            raise BitstreamError(f"bit must be 0 or 1, got {bit!r}")
        acc = self._acc << 1 | (1 if bit else 0)
        if self._pending == 7:
            self._buf.append(acc)
            self._acc = self._pending = 0
        else:
            self._acc = acc
            self._pending += 1

    def write_bits(self, bits: Iterable[int]) -> None:
        """Append every bit of an iterable (e.g. a :class:`BitArray`).

        A :class:`BitArray` is appended whole: a plain byte append when
        the writer is byte-aligned, one shift-merge otherwise.
        """
        array = bits if isinstance(bits, BitArray) else BitArray(bits)
        if self._pending:
            self._write_word(array.to_int(), len(array))
            return
        whole, tail = divmod(len(array), 8)
        raw = array.to_bytes()
        self._buf += raw[:whole]
        if tail:
            self._acc = raw[whole] >> (8 - tail)
            self._pending = tail

    def _write_word(self, value: int, width: int) -> None:
        """Append ``width`` bits of ``value`` (already known to fit)."""
        pending = self._pending + width
        acc = self._acc << width | value
        tail = pending & 7
        if pending > 7:
            self._buf += (acc >> tail).to_bytes(pending >> 3, "big")
            acc &= (1 << tail) - 1
        self._acc = acc
        self._pending = tail

    def write_uint(self, value: int, width: int) -> None:
        """Append ``value`` as a fixed-width big-endian unsigned integer."""
        if width < 0:
            raise BitstreamError(f"width must be non-negative, got {width}")
        if value < 0 or value.bit_length() > width:
            raise BitstreamError(f"value {value} does not fit in {width} bits")
        self._write_word(value, width)

    def write_uints(self, values: Iterable[int], width: int) -> None:
        """Append every value as a ``width``-bit unsigned integer.

        The bulk form of :meth:`write_uint` for fixed-width tables: the
        bits are those of one ``write_uint`` per value, but each run of
        :data:`BULK_RUN` values is assembled into one word first.  Nothing
        is written when any value does not fit.
        """
        if width < 0:
            raise BitstreamError(f"width must be non-negative, got {width}")
        values = list(values)
        if not values:
            return
        if min(values) < 0 or max(values) >> width:
            bad = next(v for v in values if v < 0 or v >> width)
            raise BitstreamError(f"value {bad} does not fit in {width} bits")
        for first in range(0, len(values), BULK_RUN):
            run = values[first : first + BULK_RUN]
            word = 0
            for value in run:
                word = word << width | value
            self._write_word(word, width * len(run))

    # -- prefix codes ------------------------------------------------------

    def write_unary(self, value: int) -> None:
        """Append ``value`` ones followed by a terminating zero.

        This is the code Theorem 1 uses for the first routing table: the
        index of the covering neighbour ``v_t`` is written as ``1^t 0``.
        """
        if value < 0:
            raise BitstreamError(f"unary value must be non-negative, got {value}")
        self._write_word(((1 << value) - 1) << 1, value + 1)

    def write_hat(self, payload: BitArray) -> None:
        """Append the paper's ``ẑ = 1^|z| 0 z`` self-delimiting code."""
        self.write_unary(len(payload))
        self.write_bits(payload)

    def write_prime(self, payload: BitArray) -> None:
        """Append the paper's shorter ``z'`` self-delimiting code.

        ``z'`` is the hat code of the binary representation of ``|z|``
        followed by ``z``; its length is ``|z| + 2⌈log(|z|+1)⌉ + 1``.
        """
        length = len(payload)
        length_bits = BitArray.from_int(length, length.bit_length())
        self.write_hat(length_bits)
        self.write_bits(payload)

    def write_gamma(self, value: int) -> None:
        """Append the Elias gamma code of a non-negative integer.

        The classical gamma code covers positive integers; we shift by one so
        zero is representable (``value + 1`` is encoded).
        """
        if value < 0:
            raise BitstreamError(f"gamma value must be non-negative, got {value}")
        shifted = value + 1
        width = shifted.bit_length()
        self.write_unary(width - 1)
        self.write_uint(shifted - (1 << (width - 1)), width - 1)

    def write_delta(self, value: int) -> None:
        """Append the Elias delta code of a non-negative integer (shifted)."""
        if value < 0:
            raise BitstreamError(f"delta value must be non-negative, got {value}")
        shifted = value + 1
        width = shifted.bit_length()
        self.write_gamma(width - 1)
        self.write_uint(shifted - (1 << (width - 1)), width - 1)

    # -- output ------------------------------------------------------------

    def getvalue(self) -> BitArray:
        """The bits written so far, as an immutable :class:`BitArray`."""
        tail = bytes((self._acc << (8 - self._pending),)) if self._pending else b""
        return BitArray._from_packed(bytes(self._buf) + tail, len(self))
