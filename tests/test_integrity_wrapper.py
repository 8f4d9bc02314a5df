"""IntegrityWrapper: charged framing around any routing scheme."""

from __future__ import annotations

import pytest

from repro.core import DetourWrapper, build_scheme
from repro.core.persistence import pack_scheme, unpack_blob
from repro.errors import IntegrityError
from repro.integrity import FramingPolicy, IntegrityWrapper
from repro.simulator import BatchKernel, uniform_pairs
from tests.routing import route_one

FRAMED = (FramingPolicy.PARITY, FramingPolicy.CRC8, FramingPolicy.CRC16)


def _records(scheme, pairs):
    kernel = BatchKernel(scheme)
    for s, d in pairs:
        kernel.inject(s, d)
    return kernel.run()


@pytest.fixture(scope="module")
def base_scheme(random_graph_32, model_ii_alpha):
    return build_scheme("full-table", random_graph_32, model_ii_alpha)


@pytest.mark.parametrize("policy", FRAMED)
def test_space_report_charges_exact_overhead(base_scheme, policy):
    wrapped = IntegrityWrapper(base_scheme, policy)
    report = wrapped.space_report()
    n = base_scheme.graph.n
    assert report.integrity_bits == n * policy.overhead_bits
    base_report = base_scheme.space_report()
    # The framing is purely additive: routing/label/aux are untouched.
    assert report.routing_bits == base_report.routing_bits
    assert report.label_bits == base_report.label_bits
    assert report.aux_bits == base_report.aux_bits
    assert report.total_bits == (
        base_report.total_bits + n * policy.overhead_bits
    )
    for entry in report.per_node:
        assert entry.integrity_bits == policy.overhead_bits
        assert entry.total == (
            entry.routing_bits + entry.label_bits + entry.aux_bits
            + entry.integrity_bits
        )
    assert "integrity" in report.summary()


@pytest.mark.parametrize("policy", FRAMED)
def test_encode_decode_round_trip(base_scheme, policy):
    wrapped = IntegrityWrapper(base_scheme, policy)
    for u in list(base_scheme.graph.nodes)[:8]:
        framed = wrapped.encode_function(u)
        assert len(framed) == (
            len(base_scheme.encode_function(u)) + policy.overhead_bits
        )
        decoded = wrapped.decode_function(u, framed)
        inner = base_scheme.function(u)
        for v in list(base_scheme.graph.nodes)[:8]:
            if v == u:
                continue
            address = base_scheme.address_of(v)
            assert (
                decoded.next_hop(address).next_node
                == inner.next_hop(address).next_node
            )


def test_decode_rejects_damaged_frame(base_scheme):
    wrapped = IntegrityWrapper(base_scheme, FramingPolicy.CRC8)
    framed = wrapped.encode_function(1)
    flipped = list(framed)
    flipped[0] ^= 1
    from repro.bitio import BitArray

    with pytest.raises(IntegrityError):
        wrapped.decode_function(1, BitArray(flipped))


def test_none_policy_is_bit_identical(base_scheme):
    # The acceptance criterion: with framing disabled the wrapped scheme's
    # spaces and routing are bit-for-bit the pre-PR scheme.
    wrapped = IntegrityWrapper(base_scheme, FramingPolicy.NONE)
    for u in base_scheme.graph.nodes:
        assert wrapped.encode_function(u) == base_scheme.encode_function(u)
    assert wrapped.integrity_bits(1) == 0
    report = wrapped.space_report()
    base_report = base_scheme.space_report()
    assert report.integrity_bits == 0
    assert report.total_bits == base_report.total_bits
    pairs = uniform_pairs(base_scheme.graph, 40, seed=5)
    assert [r.path for r in _records(wrapped, pairs)] == [
        r.path for r in _records(base_scheme, pairs)
    ]


def test_routing_through_framed_scheme(base_scheme):
    wrapped = IntegrityWrapper(base_scheme, FramingPolicy.CRC16)
    pairs = uniform_pairs(base_scheme.graph, 40, seed=5)
    framed_records = _records(wrapped, pairs)
    assert all(record.delivered for record in framed_records)
    assert [r.path for r in framed_records] == [
        r.path for r in _records(base_scheme, pairs)
    ]
    assert wrapped.stretch_bound() == base_scheme.stretch_bound()


def test_detour_composes_outside_framing(base_scheme):
    wrapped = DetourWrapper(IntegrityWrapper(base_scheme, FramingPolicy.CRC8))
    assert wrapped.scheme_name == "detour(integrity-crc8(full-table))"
    # The detour layer passes the integrity charge through unchanged.
    assert (
        wrapped.space_report().integrity_bits
        == base_scheme.graph.n * FramingPolicy.CRC8.overhead_bits
    )
    record = route_one(BatchKernel(wrapped), 2, 9)
    assert record.delivered


def test_pack_unpack_round_trip_of_framed_scheme(
    base_scheme, random_graph_32, model_ii_alpha
):
    wrapped = IntegrityWrapper(base_scheme, FramingPolicy.CRC8)
    blob = pack_scheme(wrapped)
    parsed = unpack_blob(blob)
    assert parsed.scheme_name == "integrity-crc8(full-table)"
    assert parsed.n == random_graph_32.n
    for u in random_graph_32.nodes:
        assert parsed.functions[u] == wrapped.encode_function(u)


def test_scheme_name_and_delegation(base_scheme):
    wrapped = IntegrityWrapper(base_scheme, FramingPolicy.PARITY)
    assert wrapped.scheme_name == "integrity-parity(full-table)"
    assert wrapped.inner is base_scheme
    assert wrapped.policy is FramingPolicy.PARITY
    assert wrapped.hop_limit() == base_scheme.hop_limit()
    for v in list(base_scheme.graph.nodes)[:5]:
        assert wrapped.address_of(v) == base_scheme.address_of(v)
        assert wrapped.node_of_address(wrapped.address_of(v)) == (
            base_scheme.node_of_address(base_scheme.address_of(v))
        )
