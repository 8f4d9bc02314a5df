"""Sequential bit reader mirroring :class:`repro.bitio.writer.BitWriter`.

Every ``write_*`` method on the writer has a matching ``read_*`` here; a
value written then read round-trips exactly.  Reads past the end of the
stream raise :class:`~repro.errors.BitstreamError` rather than returning
garbage, so truncated encodings are always detected.
"""

from __future__ import annotations

from typing import List

from repro.bitio.bitarray import BitArray
from repro.bitio.writer import BULK_RUN
from repro.errors import BitstreamError

__all__ = ["BitReader"]


class BitReader:
    """Sequential reader over a :class:`BitArray`.

    Reads index the packed bytes directly: a fixed-width read converts
    the byte window under the requested bits with one ``int.from_bytes``,
    then a shift and a mask.
    """

    def __init__(self, bits: BitArray) -> None:
        self._bits = bits
        self._buf = bits.to_bytes()
        self._length = len(bits)
        self._pos = 0

    @property
    def position(self) -> int:
        """Current read offset in bits."""
        return self._pos

    @property
    def remaining(self) -> int:
        """Number of unread bits."""
        return self._length - self._pos

    def at_end(self) -> bool:
        """True when every bit has been consumed."""
        return self._pos >= self._length

    # -- primitive reads ---------------------------------------------------

    def read_bit(self) -> int:
        """Read a single bit."""
        pos = self._pos
        if pos >= self._length:
            raise BitstreamError("read past end of bit stream")
        self._pos = pos + 1
        return (self._buf[pos >> 3] >> (7 - (pos & 7))) & 1

    def _advance(self, count: int) -> int:
        """Claim the next ``count`` bits; returns their start offset."""
        if count < 0:
            raise BitstreamError(f"count must be non-negative, got {count}")
        start = self._pos
        if start + count > self._length:
            raise BitstreamError(
                f"requested {count} bits but only {self.remaining} remain"
            )
        self._pos = start + count
        return start

    def read_bits(self, count: int) -> BitArray:
        """Read ``count`` bits as a :class:`BitArray`."""
        start = self._advance(count)
        return self._bits[start : start + count]

    def read_uint(self, width: int) -> int:
        """Read a fixed-width big-endian unsigned integer."""
        start = self._advance(width)
        return self._bits._window(start, start + width)

    def read_uints(self, count: int, width: int) -> List[int]:
        """Read ``count`` consecutive ``width``-bit unsigned integers.

        The bulk form of :meth:`read_uint`: each run of
        :data:`~repro.bitio.writer.BULK_RUN` values is read as one window
        and split with shifts.  Nothing is consumed when fewer than
        ``count * width`` bits remain.
        """
        if count < 0 or width < 0:
            raise BitstreamError(
                f"count and width must be non-negative, got {count}, {width}"
            )
        start = self._advance(count * width)
        if not width:
            return [0] * count
        mask = (1 << width) - 1
        values: List[int] = []
        for first in range(0, count, BULK_RUN):
            size = min(BULK_RUN, count - first)
            offset = start + first * width
            word = self._bits._window(offset, offset + size * width)
            shifts = range((size - 1) * width, -1, -width)
            values.extend([(word >> shift) & mask for shift in shifts])
        return values

    # -- prefix codes ------------------------------------------------------

    def read_unary(self) -> int:
        """Read a ``1^k 0`` unary code, returning ``k``."""
        count = 0
        while self.read_bit():
            count += 1
        return count

    def read_hat(self) -> BitArray:
        """Read a hat-coded (``ẑ``) payload."""
        length = self.read_unary()
        return self.read_bits(length)

    def read_prime(self) -> BitArray:
        """Read a prime-coded (``z'``) payload."""
        length_bits = self.read_hat()
        length = length_bits.to_int()
        if len(length_bits) != length.bit_length():
            raise BitstreamError("malformed prime code: non-canonical length")
        return self.read_bits(length)

    def read_gamma(self) -> int:
        """Read an Elias gamma code (shifted so zero is representable)."""
        width = self.read_unary()
        mantissa = self.read_uint(width)
        return (1 << width) + mantissa - 1

    def read_delta(self) -> int:
        """Read an Elias delta code (shifted so zero is representable)."""
        width = self.read_gamma()
        mantissa = self.read_uint(width)
        return (1 << width) + mantissa - 1
