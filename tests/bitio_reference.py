"""Per-bit reference implementation of ``repro.bitio`` and the framing CRC.

These are the original bit-at-a-time ``BitArray``, ``BitWriter``,
``BitReader`` and ``_crc_over_bits``, kept verbatim as an oracle: the
word-level versions in ``repro.bitio`` and ``repro.integrity.framing``
must agree with them on every input (``tests/test_bitio_reference.py``).
They are deliberately slow and must not be optimised.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Union

from repro.errors import BitstreamError

__all__ = ["BitArray", "BitReader", "BitWriter", "_crc_over_bits"]


class BitArray:
    """An immutable array of bits, packed MSB-first into bytes."""

    __slots__ = ("_buf", "_length")

    def __init__(self, bits: Iterable[int] = ()) -> None:
        buf = bytearray()
        length = 0
        for bit in bits:
            if bit not in (0, 1):
                raise BitstreamError(f"bit must be 0 or 1, got {bit!r}")
            if length % 8 == 0:
                buf.append(0)
            if bit:
                buf[-1] |= 1 << (7 - (length % 8))
            length += 1
        self._buf = bytes(buf)
        self._length = length

    # -- constructors ------------------------------------------------------

    @classmethod
    def _from_packed(cls, buf: bytes, length: int) -> "BitArray":
        """Build directly from packed bytes (internal fast path)."""
        if length > 8 * len(buf):
            raise BitstreamError(
                f"length {length} exceeds capacity of {len(buf)} bytes"
            )
        instance = cls.__new__(cls)
        instance._buf = bytes(buf)
        instance._length = length
        return instance

    @classmethod
    def from01(cls, text: str) -> "BitArray":
        """Parse a string of ``'0'``/``'1'`` characters."""
        try:
            return cls(int(ch) for ch in text)
        except ValueError as exc:
            raise BitstreamError(f"invalid bit character in {text!r}") from exc

    @classmethod
    def from_int(cls, value: int, width: int) -> "BitArray":
        """Encode ``value`` as exactly ``width`` bits, most significant first."""
        if width < 0:
            raise BitstreamError(f"width must be non-negative, got {width}")
        if value < 0:
            raise BitstreamError(f"value must be non-negative, got {value}")
        if width < value.bit_length():
            raise BitstreamError(f"value {value} does not fit in {width} bits")
        return cls((value >> (width - 1 - i)) & 1 for i in range(width))

    @classmethod
    def zeros(cls, length: int) -> "BitArray":
        """An all-zero bit array of the given length."""
        if length < 0:
            raise BitstreamError(f"length must be non-negative, got {length}")
        return cls._from_packed(bytes((length + 7) // 8), length)

    # -- accessors ---------------------------------------------------------

    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[int]:
        for i in range(self._length):
            yield self[i]

    def __getitem__(self, index: Union[int, slice]) -> Union[int, "BitArray"]:
        if isinstance(index, slice):
            start, stop, step = index.indices(self._length)
            return BitArray(self[i] for i in range(start, stop, step))
        if index < 0:
            index += self._length
        if not 0 <= index < self._length:
            raise IndexError(f"bit index {index} out of range")
        return (self._buf[index // 8] >> (7 - (index % 8))) & 1

    def to01(self) -> str:
        """Render as a string of ``'0'``/``'1'`` characters."""
        return "".join("1" if bit else "0" for bit in self)

    def to_int(self) -> int:
        """Interpret the whole array as a big-endian unsigned integer."""
        value = 0
        for bit in self:
            value = (value << 1) | bit
        return value

    def to_bytes(self) -> bytes:
        """Packed byte representation (final byte zero-padded)."""
        return self._buf

    def count(self, bit: int = 1) -> int:
        """Number of positions equal to ``bit``."""
        ones = sum(byte.bit_count() for byte in self._buf)
        return ones if bit else self._length - ones

    # -- operators ---------------------------------------------------------

    def __add__(self, other: "BitArray") -> "BitArray":
        if not isinstance(other, BitArray):
            return NotImplemented
        if self._length % 8 == 0:
            return BitArray._from_packed(
                self._buf + other._buf, self._length + len(other)
            )
        combined = BitArray(list(self) + list(other))
        return combined

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitArray):
            return NotImplemented
        return self._length == other._length and self._buf == other._buf

    def __hash__(self) -> int:
        return hash((self._buf, self._length))

    def __repr__(self) -> str:
        preview = self.to01() if self._length <= 64 else self.to01()[:61] + "..."
        return f"BitArray({preview!r}, length={self._length})"


class BitWriter:
    """Append-only builder for a :class:`BitArray`."""

    def __init__(self) -> None:
        self._buf = bytearray()
        self._length = 0

    def __len__(self) -> int:
        return self._length

    @property
    def bit_length(self) -> int:
        """Number of bits written so far."""
        return self._length

    # -- primitive writes --------------------------------------------------

    def write_bit(self, bit: int) -> None:
        """Append a single bit (0 or 1)."""
        if bit not in (0, 1):
            raise BitstreamError(f"bit must be 0 or 1, got {bit!r}")
        if self._length % 8 == 0:
            self._buf.append(0)
        if bit:
            self._buf[-1] |= 1 << (7 - (self._length % 8))
        self._length += 1

    def write_bits(self, bits: Iterable[int]) -> None:
        """Append every bit of an iterable (e.g. a :class:`BitArray`)."""
        for bit in bits:
            self.write_bit(bit)

    def write_uint(self, value: int, width: int) -> None:
        """Append ``value`` as a fixed-width big-endian unsigned integer."""
        if width < 0:
            raise BitstreamError(f"width must be non-negative, got {width}")
        if value < 0 or value.bit_length() > width:
            raise BitstreamError(f"value {value} does not fit in {width} bits")
        for i in range(width - 1, -1, -1):
            self.write_bit((value >> i) & 1)

    # -- prefix codes ------------------------------------------------------

    def write_unary(self, value: int) -> None:
        """Append ``value`` ones followed by a terminating zero.

        This is the code Theorem 1 uses for the first routing table: the
        index of the covering neighbour ``v_t`` is written as ``1^t 0``.
        """
        if value < 0:
            raise BitstreamError(f"unary value must be non-negative, got {value}")
        for _ in range(value):
            self.write_bit(1)
        self.write_bit(0)

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
        return BitArray._from_packed(bytes(self._buf), self._length)


class BitReader:
    """Sequential reader over a :class:`BitArray`."""

    def __init__(self, bits: BitArray) -> None:
        self._bits = bits
        self._pos = 0

    @property
    def position(self) -> int:
        """Current read offset in bits."""
        return self._pos

    @property
    def remaining(self) -> int:
        """Number of unread bits."""
        return len(self._bits) - self._pos

    def at_end(self) -> bool:
        """True when every bit has been consumed."""
        return self._pos >= len(self._bits)

    # -- primitive reads ---------------------------------------------------

    def read_bit(self) -> int:
        """Read a single bit."""
        if self._pos >= len(self._bits):
            raise BitstreamError("read past end of bit stream")
        bit = self._bits[self._pos]
        self._pos += 1
        return bit

    def read_bits(self, count: int) -> BitArray:
        """Read ``count`` bits as a :class:`BitArray`."""
        if count < 0:
            raise BitstreamError(f"count must be non-negative, got {count}")
        if self._pos + count > len(self._bits):
            raise BitstreamError(
                f"requested {count} bits but only {self.remaining} remain"
            )
        chunk = self._bits[self._pos : self._pos + count]
        self._pos += count
        return chunk

    def read_uint(self, width: int) -> int:
        """Read a fixed-width big-endian unsigned integer."""
        return self.read_bits(width).to_int()

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


def _crc_over_bits(payload: BitArray, poly: int, width: int, init: int) -> int:
    """Non-reflected CRC of a bit stream (all-ones init, no final XOR)."""
    mask = (1 << width) - 1
    top = width - 1
    register = init
    for bit in payload:
        feedback = ((register >> top) & 1) ^ bit
        register = (register << 1) & mask
        if feedback:
            register ^= poly
    return register
