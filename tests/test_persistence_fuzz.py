"""Fuzzing the hardened blob parser and the integrity framing layer.

``unpack_blob`` faces bytes from disk or the wire, so the contract is
strict: any input — truncated, bit-flipped, or pure noise — either parses
or raises :class:`CodecError`.  ``IndexError``, ``UnicodeDecodeError``,
``BitstreamError`` or a hang are all bugs.  The framing entry points
promise the same for :class:`IntegrityError`: ``unframe_bits`` returns
the payload or raises it, ``verify_frame`` answers with a bool, and
framing then unframing is the identity, under every policy.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bitio import BitArray
from repro.core import build_scheme
from repro.core.persistence import pack_scheme, unpack_blob
from repro.errors import CodecError, IntegrityError
from repro.graphs import gnp_random_graph
from repro.integrity import FramingPolicy, frame_bits, unframe_bits, verify_frame
from repro.models import Knowledge, Labeling, RoutingModel

II_ALPHA = RoutingModel(Knowledge.II, Labeling.ALPHA)


def _packed_blob():
    graph = gnp_random_graph(12, seed=7)
    scheme = build_scheme("full-table", graph, II_ALPHA)
    return scheme, pack_scheme(scheme)


_SCHEME, _BLOB = _packed_blob()


def _parse_or_codec_error(data: bytes) -> None:
    try:
        blob = unpack_blob(data)
    except CodecError:
        return
    # If it parsed, the result must be self-consistent.
    assert blob.n >= 0
    assert set(blob.functions) == set(range(1, blob.n + 1))


def test_round_trip_is_exact():
    blob = unpack_blob(_BLOB)
    assert blob.scheme_name == "full-table"
    assert blob.n == _SCHEME.graph.n
    for u in _SCHEME.graph.nodes:
        assert blob.functions[u] == _SCHEME.encode_function(u)


@given(st.binary(max_size=200))
def test_arbitrary_bytes_never_leak_raw_errors(data):
    _parse_or_codec_error(data)


@given(st.integers(0, len(_BLOB) - 1))
def test_every_truncation_is_rejected_cleanly(cut):
    truncated = _BLOB[:cut]
    with pytest.raises(CodecError):
        unpack_blob(truncated)


@given(
    position=st.integers(0, len(_BLOB) - 1),
    mask=st.integers(1, 255),
)
def test_single_byte_mutations_parse_or_raise_codec_error(position, mask):
    mutated = bytearray(_BLOB)
    mutated[position] ^= mask
    _parse_or_codec_error(bytes(mutated))


@given(st.data())
def test_multi_byte_mutations_parse_or_raise_codec_error(data):
    mutated = bytearray(_BLOB)
    for _ in range(data.draw(st.integers(1, 8))):
        position = data.draw(st.integers(0, len(mutated) - 1))
        mutated[position] ^= data.draw(st.integers(1, 255))
    _parse_or_codec_error(bytes(mutated))


def test_unknown_version_is_rejected_with_context():
    # Byte 4 of the container is the version field (after the 4-byte
    # bit-length header); bump it to an unsupported value.
    mutated = bytearray(_BLOB)
    mutated[5] = 9
    with pytest.raises(CodecError, match="version 9"):
        unpack_blob(bytes(mutated))


def test_bad_magic_is_rejected():
    mutated = bytearray(_BLOB)
    mutated[4] ^= 0xFF
    with pytest.raises(CodecError, match="magic"):
        unpack_blob(bytes(mutated))


def test_trailing_garbage_is_rejected():
    # Extending the payload *and* the length header leaves trailing bits
    # after the last function's prime code.
    bits = int.from_bytes(_BLOB[:4], "big") + 16
    data = bits.to_bytes(4, "big") + _BLOB[4:] + b"\xa5\x5a"
    with pytest.raises(CodecError, match="trailing"):
        unpack_blob(data)


@given(
    policy=st.sampled_from(list(FramingPolicy)),
    bits=st.lists(st.integers(0, 1), max_size=300),
    node=st.integers(),
)
def test_framing_returns_or_raises_integrity_error_and_round_trips(
    policy, bits, node
):
    framed = BitArray(bits)
    try:
        payload = unframe_bits(framed, policy, node)
    except IntegrityError:
        payload = None
    verified = verify_frame(framed, policy)
    assert isinstance(verified, bool)
    assert verified is (payload is not None)
    assert unframe_bits(frame_bits(framed, policy), policy, node) == framed
