"""The word-level bit I/O agrees with the per-bit reference on every input.

``tests/bitio_reference.py`` keeps the original bit-at-a-time
``BitArray``/``BitWriter``/``BitReader`` and CRC.  These properties drive
random bit strings and random operation sequences through both and
require identical bytes, lengths, equality, hashes, integer and text
forms, iteration, counts, checksums and decoded values; on negative,
out-of-range or past-the-end input both must raise ``BitstreamError``.
"""

from __future__ import annotations

from typing import Any, List, Sequence, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitio import BitArray, BitReader, BitWriter
from repro.errors import BitstreamError
from repro.graphs import LabeledGraph, decode_graph, encode_graph
from repro.integrity import FramingPolicy
from repro.integrity.framing import _crc_over_bits
from tests import bitio_reference as ref

CRCS = ((0x07, 8, 0xFF), (0x1021, 16, 0xFFFF))
"""(poly, width, init) of the two framing CRCs."""

widths = st.integers(0, 64) | st.integers(0, 9)
"""Field widths 0-64, with the narrow ones drawn often."""


@st.composite
def bit_lists(draw: Any, max_bits: int = 2000) -> List[int]:
    """0/1 lists of up to ``max_bits`` bits; some hold ``bool`` bits."""
    length = draw(st.integers(0, max_bits))
    size = (length + 7) // 8
    raw = draw(st.binary(min_size=size, max_size=size))
    bits: List[Any] = [(raw[i >> 3] >> (7 - (i & 7))) & 1 for i in range(length)]
    style = draw(st.sampled_from(("int", "bool", "mixed")))
    if style == "bool":
        bits = [bool(bit) for bit in bits]
    elif style == "mixed":
        bits = [bool(bit) if i % 3 == 0 else bit for i, bit in enumerate(bits)]
    return bits


@st.composite
def uint_args(draw: Any) -> Tuple[int, int]:
    """(value, width) pairs: mostly fitting, sometimes negative or too wide."""
    width = draw(widths)
    if draw(st.integers(0, 9)):
        return draw(st.integers(0, (1 << width) - 1)), width
    return draw(
        st.sampled_from(
            [(-1, width), (1 << width, width), ((1 << width) + 3, width), (0, -1)]
        )
    )


@st.composite
def uints_args(draw: Any) -> Tuple[List[int], int]:
    """(values, width) for the bulk codec, sometimes with one bad value."""
    width = draw(widths)
    values = draw(st.lists(st.integers(0, (1 << width) - 1), max_size=40))
    if values and not draw(st.integers(0, 9)):
        bad = draw(st.sampled_from([-1, 1 << width]))
        values[draw(st.integers(0, len(values) - 1))] = bad
    if not draw(st.integers(0, 19)):
        width = -1
    return values, width


write_ops = st.one_of(
    st.tuples(st.just("bit"), st.sampled_from([0, 1, True, False, 2, -1])),
    st.tuples(st.just("bits"), bit_lists(200)),
    st.tuples(st.just("uint"), uint_args()),
    st.tuples(st.just("uints"), uints_args()),
    st.tuples(st.just("unary"), st.integers(-1, 200)),
    st.tuples(st.just("gamma"), st.integers(-1, 1 << 70)),
    st.tuples(st.just("delta"), st.integers(-1, 1 << 70)),
    st.tuples(st.just("hat"), bit_lists(100)),
    st.tuples(st.just("prime"), bit_lists(300)),
)

read_ops = st.one_of(
    st.tuples(st.just("bit"), st.just(0)),
    st.tuples(st.just("bits"), st.integers(-1, 300)),
    st.tuples(st.just("uint"), st.just(-1) | widths),
    st.tuples(st.just("uints"), st.tuples(st.integers(-1, 20), st.just(-1) | widths)),
    st.tuples(st.sampled_from(["unary", "gamma", "delta", "hat", "prime"]), st.just(0)),
)


# -- the bulk API's reference: one fixed-width op per value ------------------


def ref_write_uints(writer: ref.BitWriter, values: Sequence[int], width: int) -> None:
    """``write_uints`` spelled as ``write_uint`` calls; nothing is written
    when any value does not fit."""
    if width < 0 or any(v < 0 or v.bit_length() > width for v in values):
        raise BitstreamError(f"a value does not fit in {width} bits")
    for value in values:
        writer.write_uint(value, width)


def ref_read_uints(reader: ref.BitReader, count: int, width: int) -> List[int]:
    """``read_uints`` spelled as ``read_uint`` calls; nothing is consumed
    when the run does not fit."""
    if count < 0 or width < 0 or count * width > reader.remaining:
        raise BitstreamError("bulk read does not fit")
    return [reader.read_uint(width) for _ in range(count)]


def write(writer: Any, op: str, arg: Any) -> None:
    reference = isinstance(writer, ref.BitWriter)
    array = ref.BitArray if reference else BitArray
    if op == "bit":
        writer.write_bit(arg)
    elif op == "bits":
        writer.write_bits(array(arg))
    elif op == "uint":
        writer.write_uint(*arg)
    elif op == "uints":
        if reference:
            ref_write_uints(writer, *arg)
        else:
            writer.write_uints(*arg)
    elif op in ("hat", "prime"):
        getattr(writer, f"write_{op}")(array(arg))
    else:
        getattr(writer, f"write_{op}")(arg)


def read(reader: Any, op: str, arg: Any) -> Any:
    reference = isinstance(reader, ref.BitReader)
    if op == "bit":
        return reader.read_bit()
    if op in ("bits", "uint"):
        return getattr(reader, f"read_{op}")(arg)
    if op == "uints":
        if reference:
            return ref_read_uints(reader, *arg)
        return reader.read_uints(*arg)
    return getattr(reader, f"read_{op}")()


def read_arg(op: str, arg: Any) -> Any:
    """The read that undoes write ``(op, arg)``."""
    if op == "bits":
        return len(arg)
    if op == "uint":
        return arg[1]
    if op == "uints":
        return (len(arg[0]), arg[1])
    return 0


def outcome(func: Any, *args: Any) -> Tuple[str, Any]:
    """``("ok", value)`` or ``("raised", type)``, BitArrays as (bytes, len)."""
    try:
        value = func(*args)
    except BitstreamError:
        return "raised", BitstreamError
    if isinstance(value, (BitArray, ref.BitArray)):
        return "ok", (value.to_bytes(), len(value))
    return "ok", value


def assert_same(new: BitArray, old: ref.BitArray) -> None:
    assert isinstance(new, BitArray)
    assert new.to_bytes() == old.to_bytes()
    assert len(new) == len(old)
    assert hash(new) == hash(old)
    assert new == BitArray._from_packed(old.to_bytes(), len(old))
    dirty = bytearray(old.to_bytes() + b"\xa5")
    dirty[len(old) // 8] |= 0xFF >> (len(old) % 8)
    assert new == BitArray._from_packed(bytes(dirty), len(old))
    assert new.to_int() == old.to_int()
    assert new.to01() == old.to01()
    assert list(new) == list(old)
    assert new.count(1) == old.count(1) and new.count(0) == old.count(0)


# -- BitArray ----------------------------------------------------------------


class TestBitArray:
    @settings(max_examples=150)
    @given(bit_lists())
    def test_construction_and_accessors(self, bits):
        new, old = BitArray(bits), ref.BitArray(bits)
        assert_same(new, old)
        assert_same(BitArray.from01(old.to01()), old)
        assert_same(BitArray.from_int(old.to_int(), len(old)), old)
        assert_same(BitArray(new), old)
        assert new == BitArray.from01(old.to01())
        assert hash(new) == hash(BitArray.from_int(old.to_int(), len(old)))

    @settings(max_examples=150)
    @given(
        bit_lists(),
        bit_lists(300),
        st.integers(-2100, 2100),
        st.integers(-2100, 2100),
        st.sampled_from([None, 1, 2, 3, -1, -2]),
    )
    def test_slices_and_concatenation(self, bits, other, start, stop, step):
        new, old = BitArray(bits), ref.BitArray(bits)
        assert_same(new[start:stop:step], old[start:stop:step])
        assert_same(new[start:stop], old[start:stop])
        assert_same(new[start:], old[start:])
        assert_same(new + BitArray(other), old + ref.BitArray(other))
        assert_same(
            new[start:stop] + BitArray(other) + new[:stop],
            old[start:stop] + ref.BitArray(other) + old[:stop],
        )

    def test_concatenation_and_slices_at_every_small_length(self):
        pattern = [1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 1, 0, 1]
        for left in range(18):
            for right in range(18):
                new = BitArray(pattern[:left]) + BitArray(pattern[-right:][:right])
                old = ref.BitArray(pattern[:left]) + ref.BitArray(
                    pattern[-right:][:right]
                )
                assert_same(new, old)
                assert_same(new[right:left], old[right:left])

    @given(bit_lists(64), st.integers(-70, 70))
    def test_indexing(self, bits, index):
        new, old = BitArray(bits), ref.BitArray(bits)
        try:
            expected = old[index]
        except IndexError:
            with pytest.raises(IndexError):
                new[index]
        else:
            assert new[index] == expected

    @given(st.lists(st.sampled_from([2, -1, "1", None, 0.5]), min_size=1, max_size=3))
    def test_invalid_bits_rejected(self, junk):
        for constructor in (BitArray, ref.BitArray):
            with pytest.raises(BitstreamError):
                constructor([0, 1] + junk)

    @settings(max_examples=150)
    @given(bit_lists())
    def test_checksums(self, bits):
        new, old = BitArray(bits), ref.BitArray(bits)
        for poly, width, init in CRCS:
            expected = ref._crc_over_bits(old, poly, width, init)
            assert _crc_over_bits(new, poly, width, init) == expected
            policy = FramingPolicy.CRC8 if width == 8 else FramingPolicy.CRC16
            assert policy.checksum(new).to_int() == expected
        assert FramingPolicy.PARITY.checksum(new).to_int() == old.count(1) & 1


# -- BitWriter / BitReader ---------------------------------------------------


class TestCodecs:
    @settings(max_examples=200)
    @given(st.lists(write_ops, max_size=25))
    def test_write_then_read_sequences(self, ops):
        new_writer, old_writer = BitWriter(), ref.BitWriter()
        written = []
        for op, arg in ops:
            result = outcome(write, new_writer, op, arg)
            assert result == outcome(write, old_writer, op, arg), (op, arg)
            if result[0] == "raised":
                break
            written.append((op, arg))
            assert len(new_writer) == len(old_writer)
            assert new_writer.bit_length == old_writer.bit_length
        new_bits, old_bits = new_writer.getvalue(), old_writer.getvalue()
        assert_same(new_bits, old_bits)

        new_reader, old_reader = BitReader(new_bits), ref.BitReader(old_bits)
        for op, arg in written:
            args = read_arg(op, arg)
            result = outcome(read, new_reader, op, args)
            assert result == outcome(read, old_reader, op, args), (op, arg)
            assert result[0] == "ok"
            assert new_reader.position == old_reader.position
        assert new_reader.at_end() and old_reader.at_end()
        for op, args in (("bit", 0), ("uint", 1), ("uints", (1, 1)), ("unary", 0)):
            assert outcome(read, new_reader, op, args) == ("raised", BitstreamError)
            assert outcome(read, old_reader, op, args) == ("raised", BitstreamError)

    def test_bit_runs_at_every_offset(self):
        for offset in range(8):
            for bit in (0, 1):
                for run in range(20):
                    writers = (BitWriter(), ref.BitWriter())
                    for writer in writers:
                        writer.write_uint(0b1011001 % (1 << offset), offset)
                        for _ in range(run):
                            writer.write_bit(bit)
                    assert_same(writers[0].getvalue(), writers[1].getvalue())

    def test_bulk_codec_at_every_width_and_offset(self):
        for width in range(65):
            values = [(i * 0x9E3779B97F4A7C15) % (1 << width) for i in range(13)]
            for offset in range(8):
                new_writer, old_writer = BitWriter(), ref.BitWriter()
                for writer in (new_writer, old_writer):
                    writer.write_uint(0b1011001 % (1 << offset), offset)
                new_writer.write_uints(values, width)
                ref_write_uints(old_writer, values, width)
                new_bits, old_bits = new_writer.getvalue(), old_writer.getvalue()
                assert_same(new_bits, old_bits)
                new_reader, old_reader = BitReader(new_bits), ref.BitReader(old_bits)
                new_reader.read_uint(offset)
                old_reader.read_uint(offset)
                assert new_reader.read_uints(len(values), width) == values
                assert ref_read_uints(old_reader, len(values), width) == values
                assert new_reader.at_end()

    @settings(max_examples=200)
    @given(bit_lists(600), st.lists(read_ops, max_size=30))
    def test_reads_of_arbitrary_bits(self, bits, ops):
        new_reader = BitReader(BitArray(bits))
        old_reader = ref.BitReader(ref.BitArray(bits))
        for op, arg in ops:
            result = outcome(read, new_reader, op, arg)
            assert result == outcome(read, old_reader, op, arg), (op, arg)
            if result[0] == "raised":
                break
            assert new_reader.position == old_reader.position
            assert new_reader.remaining == old_reader.remaining


# -- E(G) --------------------------------------------------------------------


def per_bit_encode_graph(graph: LabeledGraph) -> ref.BitArray:
    """Definition 2's ``E(G)``, one ``write_bit`` per vertex pair."""
    n = graph.n
    writer = ref.BitWriter()
    for u in range(1, n + 1):
        adjacent = graph.neighbor_set(u)
        for v in range(u + 1, n + 1):
            writer.write_bit(1 if v in adjacent else 0)
    return writer.getvalue()


@settings(max_examples=100)
@given(st.integers(1, 40), st.data())
def test_row_wise_graph_encoding_matches_per_bit(n, data):
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    present = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    graph = LabeledGraph(n, [pair for pair, keep in zip(pairs, present) if keep])
    encoded = encode_graph(graph)
    assert_same(encoded, per_bit_encode_graph(graph))
    assert set(decode_graph(encoded, n).edges()) == set(graph.edges())
