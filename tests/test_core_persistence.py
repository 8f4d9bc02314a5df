"""Tests for whole-scheme packing/unpacking."""

from __future__ import annotations

import random

import pytest

from repro.core import (
    build_scheme,
    pack_scheme,
    restore_scheme,
    unpack_blob,
    verify_scheme,
)
from repro.errors import CodecError
from repro.graphs import PortAssignment, gnp_random_graph
from repro.models import Knowledge, Labeling, RoutingModel


@pytest.fixture(scope="module")
def graph():
    return gnp_random_graph(28, seed=43)


class TestRoundTrip:
    @pytest.mark.parametrize(
        "name", ["full-table", "thm1-two-level", "thm3-centers", "thm4-hub"]
    )
    def test_pack_unpack_restore(self, name, graph, model_ii_alpha):
        scheme = build_scheme(name, graph, model_ii_alpha)
        blob = pack_scheme(scheme)
        restored = restore_scheme(blob, graph, model_ii_alpha)
        assert restored.scheme_name == name
        report = verify_scheme(restored)
        assert report.ok()
        for u in graph.nodes:
            for w in graph.nodes:
                if w != u:
                    assert (
                        restored.function(u).next_hop(w).next_node
                        == scheme.function(u).next_hop(w).next_node
                    )

    def test_blob_metadata(self, graph, model_ii_alpha):
        scheme = build_scheme("thm1-two-level", graph, model_ii_alpha)
        blob = unpack_blob(pack_scheme(scheme))
        assert blob.scheme_name == "thm1-two-level"
        assert blob.n == graph.n
        assert set(blob.functions) == set(graph.nodes)

    def test_packed_function_bits_match_report(self, graph, model_ii_alpha):
        scheme = build_scheme("thm1-two-level", graph, model_ii_alpha)
        blob = unpack_blob(pack_scheme(scheme))
        assert blob.total_function_bits == scheme.space_report().routing_bits

    def test_restore_needs_the_packed_ports(self, graph, model_ia_alpha):
        """A shuffled-port full-table restores exactly under its ports and
        is refused over the identity ports its bits were not written for."""
        ports = PortAssignment.shuffled(graph, random.Random(5))
        scheme = build_scheme("full-table", graph, model_ia_alpha, ports=ports)
        blob = pack_scheme(scheme)
        with pytest.raises(CodecError, match="other ports or parameters"):
            restore_scheme(blob, graph, model_ia_alpha)
        restored = restore_scheme(blob, graph, model_ia_alpha, ports=ports)
        assert pack_scheme(restored) == blob
        assert restored.port_assignment is ports

    def test_pack_is_deterministic(self, graph, model_ii_alpha):
        scheme = build_scheme("thm4-hub", graph, model_ii_alpha)
        assert pack_scheme(scheme) == pack_scheme(scheme)


class TestErrors:
    def test_truncated_blob_rejected(self, graph, model_ii_alpha):
        blob = pack_scheme(build_scheme("thm4-hub", graph, model_ii_alpha))
        with pytest.raises(CodecError):
            unpack_blob(blob[: len(blob) // 2])

    def test_bad_magic_rejected(self):
        with pytest.raises(CodecError):
            unpack_blob(b"\x00\x00\x00\x10\xff\xff")

    def test_empty_rejected(self):
        with pytest.raises(CodecError):
            unpack_blob(b"\x00")

    def test_wrong_graph_size_rejected(self, graph, model_ii_alpha):
        blob = pack_scheme(build_scheme("thm4-hub", graph, model_ii_alpha))
        other = gnp_random_graph(30, seed=1)
        with pytest.raises(CodecError):
            restore_scheme(blob, other, model_ii_alpha)

    def test_declared_n_vs_functions_present_mismatch(self, graph,
                                                      model_ii_alpha):
        # A blob whose length header is *consistent* with its (short)
        # payload but which holds fewer functions than its declared n
        # must be reported as that structural lie, not as a leaked
        # bitstream exhaustion from deep inside a prime code.
        blob = pack_scheme(build_scheme("full-table", graph, model_ii_alpha))
        cut = len(blob) // 2
        tampered = (8 * (cut - 4)).to_bytes(4, "big") + blob[4:cut]
        with pytest.raises(CodecError, match=r"declares n=28 but holds only"):
            unpack_blob(tampered)

    def test_corrupt_header_length(self, graph, model_ii_alpha):
        blob = pack_scheme(build_scheme("thm4-hub", graph, model_ii_alpha))
        corrupted = (2**31).to_bytes(4, "big") + blob[4:]
        with pytest.raises(CodecError):
            unpack_blob(corrupted)


class TestOneByteForm:
    """A scheme has exactly one blob: no trailing bytes, zero padding."""

    def test_trailing_bytes_rejected(self, graph, model_ii_alpha):
        blob = pack_scheme(build_scheme("thm4-hub", graph, model_ii_alpha))
        with pytest.raises(CodecError, match="bytes follow"):
            unpack_blob(blob + b"\xde\xad")

    def test_set_padding_bit_rejected(self, graph, model_ii_alpha):
        blob = pack_scheme(build_scheme("thm4-hub", graph, model_ii_alpha))
        bit_length = int.from_bytes(blob[:4], "big")
        assert bit_length % 8, "needs a blob whose last byte is padded"
        tampered = blob[:-1] + bytes((blob[-1] | 1,))
        with pytest.raises(CodecError, match="padding"):
            unpack_blob(tampered)
