"""A compact, immutable sequence of bits.

:class:`BitArray` is the currency of the whole library: graph encodings
(Definition 2 of the paper), serialised routing functions, and the
incompressibility codecs all produce and consume it.  It stores bits packed
eight per byte (most significant bit first) and exposes a small, explicit
API: indexing, slicing, concatenation and conversion to/from ``'01'`` text.

The packed form is canonical: exactly ``⌈len/8⌉`` bytes with the padding
bits of the last byte zero.  Every constructor establishes it, so equal
bit strings have equal bytes (and hashes), and slicing, concatenation and
integer conversion work on whole bytes and Python ints, never bit by bit.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Union, overload

from repro.errors import BitstreamError

__all__ = ["BitArray"]


def _pack(value: int, width: int) -> bytes:
    """``value`` as exactly ``width`` bits, MSB-first, padding bits zero."""
    return (value << (-width % 8)).to_bytes((width + 7) // 8, "big")


class BitArray:
    """An immutable array of bits, packed MSB-first into bytes."""

    __slots__ = ("_buf", "_length")

    _buf: bytes
    _length: int

    def __init__(self, bits: Iterable[int] = ()) -> None:
        values = list(bits)
        for bit in values:
            if bit not in (0, 1):
                raise BitstreamError(f"bit must be 0 or 1, got {bit!r}")
        text = "".join(["1" if bit else "0" for bit in values])
        self._buf = _pack(int(text or "0", 2), len(text))
        self._length = len(text)

    # -- constructors ------------------------------------------------------

    @classmethod
    def _from_packed(cls, buf: bytes, length: int) -> "BitArray":
        """Build from packed MSB-first bytes holding at least ``length`` bits.

        Bytes past ``⌈length/8⌉`` and the padding bits of the last byte
        are dropped, so the result is canonical whatever the input holds.
        """
        if length < 0:
            raise BitstreamError(f"length must be non-negative, got {length}")
        if length > 8 * len(buf):
            raise BitstreamError(
                f"length {length} exceeds capacity of {len(buf)} bytes"
            )
        size = (length + 7) // 8
        pad = -length % 8
        data = bytes(buf[:size])
        if pad and data[-1] & ((1 << pad) - 1):
            data = data[:-1] + bytes((data[-1] & (0xFF << pad) & 0xFF,))
        instance = cls.__new__(cls)
        instance._buf = data
        instance._length = length
        return instance

    @classmethod
    def _from_uint(cls, value: int, width: int) -> "BitArray":
        """``value`` (already known to fit) as exactly ``width`` bits."""
        instance = cls.__new__(cls)
        instance._buf = _pack(value, width)
        instance._length = width
        return instance

    @classmethod
    def from01(cls, text: str) -> "BitArray":
        """Parse a string of ``'0'``/``'1'`` characters."""
        if text.strip("01"):
            raise BitstreamError(f"invalid bit character in {text!r}")
        return cls._from_uint(int(text or "0", 2), len(text))

    @classmethod
    def from_int(cls, value: int, width: int) -> "BitArray":
        """Encode ``value`` as exactly ``width`` bits, most significant first."""
        if width < 0:
            raise BitstreamError(f"width must be non-negative, got {width}")
        if value < 0:
            raise BitstreamError(f"value must be non-negative, got {value}")
        if width < value.bit_length():
            raise BitstreamError(f"value {value} does not fit in {width} bits")
        return cls._from_uint(value, width)

    @classmethod
    def zeros(cls, length: int) -> "BitArray":
        """An all-zero bit array of the given length."""
        if length < 0:
            raise BitstreamError(f"length must be non-negative, got {length}")
        return cls._from_uint(0, length)

    # -- accessors ---------------------------------------------------------

    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[int]:
        return map(int, self.to01())

    @overload
    def __getitem__(self, index: int) -> int: ...

    @overload
    def __getitem__(self, index: slice) -> "BitArray": ...

    def __getitem__(self, index: Union[int, slice]) -> Union[int, "BitArray"]:
        if isinstance(index, slice):
            start, stop, step = index.indices(self._length)
            if step == 1:
                stop = max(start, stop)
                return BitArray._from_uint(self._window(start, stop), stop - start)
            return BitArray(self[i] for i in range(start, stop, step))
        if index < 0:
            index += self._length
        if not 0 <= index < self._length:
            raise IndexError(f"bit index {index} out of range")
        return (self._buf[index // 8] >> (7 - (index % 8))) & 1

    def _window(self, start: int, stop: int) -> int:
        """Bits ``[start, stop)`` as an unsigned int (bounds pre-checked)."""
        first = start >> 3
        last = (stop + 7) >> 3
        window = int.from_bytes(self._buf[first:last], "big")
        return (window >> (8 * last - stop)) & ((1 << (stop - start)) - 1)

    def to01(self) -> str:
        """Render as a string of ``'0'``/``'1'`` characters."""
        if not self._length:
            return ""
        return format(self.to_int(), f"0{self._length}b")

    def to_int(self) -> int:
        """Interpret the whole array as a big-endian unsigned integer."""
        return int.from_bytes(self._buf, "big") >> (-self._length % 8)

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
        return BitArray._from_uint(
            (self.to_int() << other._length) | other.to_int(),
            self._length + other._length,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitArray):
            return NotImplemented
        return self._length == other._length and self._buf == other._buf

    def __hash__(self) -> int:
        return hash((self._buf, self._length))

    def __repr__(self) -> str:
        preview = self.to01() if self._length <= 64 else self.to01()[:61] + "..."
        return f"BitArray({preview!r}, length={self._length})"
