"""Charged integrity framing over encoded routing functions.

The paper's space measure is the exact length of each node's serialised
routing function; a deployment that wants to *detect* corruption of those
bits must pay for the detector in the same currency.  This module frames a
payload ``BitArray`` with a trailing checksum — a parity bit or a CRC —
and charges the checksum width explicitly (see
:meth:`~repro.core.scheme.RoutingScheme.integrity_bits` and the
``integrity_bits`` line of every :class:`~repro.models.SpaceReport`).

Frame layout (``policy.overhead_bits`` trailing bits)::

    payload bits ... | checksum(payload)

Verification recomputes the checksum over the leading bits and compares;
a mismatch raises :class:`~repro.errors.IntegrityError`.  Both CRC
polynomials in use (CRC-8/0x07, CRC-16/CCITT 0x1021) have more than one
term, so every single-bit flip — anywhere in payload or checksum — is
detected, as is any burst no longer than the checksum width.  Truncation
shifts the checksum region onto payload bits: dropping ``c`` trailing
bits survives verification only when the ``c`` lost bits happen to be
consistent with the shifted register, probability ``~2^-c`` (floored at
``2^-width``).  The registers initialise to all-ones (standard
CRC-8/CCITT practice) so the degenerate all-zeros table, whose init-0
CRC would stay zero at *every* truncated length, is covered too.
"""

from __future__ import annotations

import binascii
import enum
import functools
from typing import Tuple

from repro.bitio import BitArray
from repro.errors import BitstreamError, IntegrityError

__all__ = [
    "FramingPolicy",
    "frame_bits",
    "unframe_bits",
    "verify_frame",
]


def _shift_in(register: int, byte: int, count: int, poly: int, width: int) -> int:
    """Shift the top ``count`` bits of ``byte`` into a CRC register."""
    mask = (1 << width) - 1
    top = width - 1
    for i in range(count):
        feedback = ((register >> top) & 1) ^ ((byte >> (7 - i)) & 1)
        register = (register << 1) & mask
        if feedback:
            register ^= poly
    return register


@functools.lru_cache(maxsize=None)
def _crc_table(poly: int, width: int) -> Tuple[int, ...]:
    """The classic MSB-first table: each byte value's register update."""
    return tuple(
        _shift_in(byte << (width - 8), 0, 8, poly, width) for byte in range(256)
    )


def _crc_over_bits(payload: BitArray, poly: int, width: int, init: int) -> int:
    """Non-reflected CRC of a bit stream (all-ones init, no final XOR).

    Whole bytes go through ``binascii.crc_hqx`` (CRC-16, poly 0x1021) or
    a 256-entry table (any other ``width >= 8``); the fewer than eight
    bits past the last whole byte are shifted in one at a time.
    """
    data = payload.to_bytes()
    whole, tail = divmod(len(payload), 8)
    if poly == 0x1021 and width == 16:
        register = binascii.crc_hqx(data[:whole], init)
    else:
        table = _crc_table(poly, width)
        mask = (1 << width) - 1
        shift = width - 8
        register = init
        for byte in data[:whole]:
            register = ((register << 8) & mask) ^ table[(register >> shift) ^ byte]
    if tail:
        register = _shift_in(register, data[whole], tail, poly, width)
    return register


class FramingPolicy(str, enum.Enum):
    """Which checksum (if any) frames each encoded routing function."""

    NONE = "none"
    """No framing: zero overhead, zero detection (the pre-framing stack)."""
    PARITY = "parity"
    """One even-parity bit: detects every odd number of flipped bits."""
    CRC8 = "crc8"
    """CRC-8 (poly 0x07): all single flips, bursts <= 8 bits."""
    CRC16 = "crc16"
    """CRC-16/CCITT (poly 0x1021): all single flips, bursts <= 16 bits."""

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value

    @property
    def overhead_bits(self) -> int:
        """Charged checksum width per framed function."""
        if self is FramingPolicy.NONE:
            return 0
        if self is FramingPolicy.PARITY:
            return 1
        if self is FramingPolicy.CRC8:
            return 8
        return 16

    def checksum(self, payload: BitArray) -> BitArray:
        """The checksum bits this policy appends to ``payload``."""
        if self is FramingPolicy.NONE:
            return BitArray()
        if self is FramingPolicy.PARITY:
            return BitArray((payload.count(1) & 1,))
        if self is FramingPolicy.CRC8:
            return BitArray.from_int(
                _crc_over_bits(payload, 0x07, 8, 0xFF), 8
            )
        return BitArray.from_int(
            _crc_over_bits(payload, 0x1021, 16, 0xFFFF), 16
        )


def frame_bits(payload: BitArray, policy: FramingPolicy) -> BitArray:
    """Append ``policy``'s checksum to ``payload`` (identity under NONE).

    Only :class:`~repro.errors.IntegrityError` escapes this entry point:
    a malformed payload that trips the bit layer is reported as a framing
    failure, not as a leaked :class:`~repro.errors.BitstreamError`.
    """
    if policy is FramingPolicy.NONE:
        return payload
    try:
        return payload + policy.checksum(payload)
    except BitstreamError as exc:
        raise IntegrityError(f"cannot frame payload: {exc}") from exc


def unframe_bits(
    framed: BitArray, policy: FramingPolicy, node: int = 0
) -> BitArray:
    """Split and verify a framed function; return the payload bits.

    Raises :class:`~repro.errors.IntegrityError` when the frame is shorter
    than its checksum (truncation past the payload) or the recomputed
    checksum disagrees with the stored one.  ``node`` only flavours the
    error message.
    """
    if policy is FramingPolicy.NONE:
        return framed
    overhead = policy.overhead_bits
    if len(framed) < overhead:
        raise IntegrityError(
            f"node {node}: framed function of {len(framed)} bits is shorter "
            f"than its {overhead}-bit {policy.value} checksum"
        )
    split = len(framed) - overhead
    try:
        payload = framed[:split]
        stored = framed[split:]
        expected = policy.checksum(payload)
    except BitstreamError as exc:
        raise IntegrityError(
            f"node {node}: cannot unframe function bits: {exc}"
        ) from exc
    if stored != expected:
        raise IntegrityError(
            f"node {node}: {policy.value} checksum mismatch "
            f"(stored {stored.to01()}, computed {expected.to01()})"
        )
    return payload


def verify_frame(framed: BitArray, policy: FramingPolicy) -> bool:
    """Whether a framed bit string passes its integrity check."""
    try:
        unframe_bits(framed, policy)
    except IntegrityError:
        return False
    return True
