"""Misc coverage: codec framework, message records, estimator dataclasses,
Table 1 contents, and the codec evaluate path for broken codecs."""

from __future__ import annotations

import pytest

from repro.bitio import BitArray
from repro.errors import CodecError
from repro.graphs import LabeledGraph, edge_code_length, gnp_random_graph
from repro.incompressibility import GraphCodec, evaluate_codec
from repro.kolmogorov import ComplexityEstimate
from repro.models import Knowledge, Labeling
from repro.simulator.message import DeliveryRecord


class _LossyCodec(GraphCodec):
    """A codec that forgets an edge: must be caught by evaluate_codec."""

    name = "lossy"

    def encode(self, graph):
        from repro.graphs import encode_graph

        return encode_graph(graph)

    def decode(self, bits, n):
        from repro.graphs import decode_graph

        graph = decode_graph(bits, n)
        edges = list(graph.edges())
        if edges:
            edges = edges[1:]
        return LabeledGraph(n, edges)


class TestCodecFramework:
    def test_lossy_codec_detected(self):
        graph = gnp_random_graph(10, seed=1)
        with pytest.raises(CodecError, match="round-trip"):
            evaluate_codec(_LossyCodec(), graph)

    def test_report_savings_arithmetic(self):
        from repro.incompressibility import Lemma1Codec

        graph = gnp_random_graph(12, seed=1)
        report = evaluate_codec(Lemma1Codec(), graph)
        assert report.baseline_bits == edge_code_length(12)
        assert report.savings == report.baseline_bits - report.encoded_bits

    def test_savings_helper_matches_report(self):
        from repro.incompressibility import Lemma1Codec

        graph = gnp_random_graph(12, seed=1)
        codec = Lemma1Codec()
        assert codec.savings(graph) == evaluate_codec(codec, graph).savings


class TestMessageRecords:
    def test_delivery_record_immutable(self):
        record = DeliveryRecord(
            msg_id=1,
            source=1,
            destination=2,
            delivered=True,
            hops=1,
            path=(1, 2),
        )
        with pytest.raises(AttributeError):
            record.delivered = False

    def test_drop_reason_default(self):
        record = DeliveryRecord(
            msg_id=1, source=1, destination=2, delivered=True, hops=1,
            path=(1, 2),
        )
        assert record.drop_reason is None
        assert record.latency == 0.0


class TestComplexityEstimate:
    def test_fields(self):
        estimate = ComplexityEstimate(
            compressor="zlib", original_bits=1000, bits=400
        )
        assert estimate.deficiency == 600
        assert estimate.ratio == pytest.approx(0.4)

    def test_incompressible_clamps(self):
        estimate = ComplexityEstimate(
            compressor="zlib", original_bits=100, bits=130
        )
        assert estimate.deficiency == 0
        assert estimate.ratio == pytest.approx(1.3)


class TestPaperTable1Contents:
    def test_paper_rows_present(self):
        from repro.analysis import PAPER_TABLE1

        # The eleven filled cells of the paper's Table 1.
        sections = {key[0] for key in PAPER_TABLE1}
        assert sections == {"worst-lower", "avg-upper", "avg-lower"}
        assert (
            PAPER_TABLE1[("avg-upper", Knowledge.II, Labeling.GAMMA)]
            == "O(n log² n)"
        )
        assert (
            PAPER_TABLE1[("avg-lower", Knowledge.IA, Labeling.ALPHA)]
            == "Ω(n² log n)"
        )

    def test_render_full_grid_structure(self):
        from repro.analysis import format_table1

        text = format_table1([])
        for heading in (
            "worst case — lower bounds",
            "average case — upper bounds",
            "average case — lower bounds",
        ):
            assert heading in text
        for row in ("port assignment fixed (IA)", "port assignment free (IB)",
                    "neighbours known (II)"):
            assert text.count(row) == 3
