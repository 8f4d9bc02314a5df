"""Tests for the nine models and space accounting."""

from __future__ import annotations

import pytest

from repro.errors import ModelError
from repro.models import (
    Knowledge,
    Labeling,
    NodeSpace,
    RoutingModel,
    SpaceReport,
    all_models,
    minimal_label_bits,
)


class TestKnowledge:
    def test_three_levels(self):
        assert len(list(Knowledge)) == 3

    def test_neighbors_known_only_ii(self):
        assert Knowledge.II.neighbors_known
        assert not Knowledge.IA.neighbors_known
        assert not Knowledge.IB.neighbors_known

    def test_ports_reassignable_only_ib(self):
        assert Knowledge.IB.ports_reassignable
        assert not Knowledge.IA.ports_reassignable
        assert not Knowledge.II.ports_reassignable

    def test_str(self):
        assert str(Knowledge.IA) == "IA"


class TestLabeling:
    def test_three_levels(self):
        assert len(list(Labeling)) == 3

    def test_relabeling(self):
        assert not Labeling.ALPHA.relabeling_allowed
        assert Labeling.BETA.relabeling_allowed
        assert Labeling.GAMMA.relabeling_allowed

    def test_charging_only_gamma(self):
        assert Labeling.GAMMA.labels_charged
        assert not Labeling.ALPHA.labels_charged
        assert not Labeling.BETA.labels_charged

    def test_symbols(self):
        assert str(Labeling.ALPHA) == "α"
        assert str(Labeling.GAMMA) == "γ"


class TestRoutingModel:
    def test_nine_models(self):
        models = list(all_models())
        assert len(models) == 9
        assert len(set(models)) == 9

    def test_capability_passthrough(self):
        model = RoutingModel(Knowledge.II, Labeling.GAMMA)
        assert model.neighbors_known
        assert not model.ports_reassignable
        assert model.relabeling_allowed
        assert model.labels_charged

    def test_require_passes(self):
        model = RoutingModel(Knowledge.IB, Labeling.ALPHA)
        model.require(ports_reassignable=True, relabeling=False)

    def test_require_raises_with_explanation(self):
        model = RoutingModel(Knowledge.IA, Labeling.ALPHA)
        with pytest.raises(ModelError, match="neighbours known"):
            model.require(neighbors_known=True)

    def test_require_none_means_dont_care(self):
        RoutingModel(Knowledge.IA, Labeling.BETA).require()

    def test_str_uses_paper_notation(self):
        assert str(RoutingModel(Knowledge.II, Labeling.ALPHA)) == "II ∧ α"

    def test_hashable(self):
        a = RoutingModel(Knowledge.II, Labeling.ALPHA)
        b = RoutingModel(Knowledge.II, Labeling.ALPHA)
        assert a == b and hash(a) == hash(b)


class TestMinimalLabelBits:
    def test_matches_ceil_log(self):
        assert minimal_label_bits(1) == 1
        assert minimal_label_bits(7) == 3
        assert minimal_label_bits(8) == 4
        assert minimal_label_bits(255) == 8
        assert minimal_label_bits(256) == 9


class TestSpaceReport:
    def _report(self):
        model = RoutingModel(Knowledge.II, Labeling.GAMMA)
        report = SpaceReport(model=model, scheme_name="test", n=3)
        report.add(NodeSpace(node=1, routing_bits=10, label_bits=4, aux_bits=1))
        report.add(NodeSpace(node=2, routing_bits=20))
        report.add(NodeSpace(node=3, routing_bits=30, label_bits=6))
        return report

    def test_totals(self):
        report = self._report()
        assert report.routing_bits == 60
        assert report.label_bits == 10
        assert report.aux_bits == 1
        assert report.total_bits == 71

    def test_per_node_stats(self):
        report = self._report()
        assert report.max_node_bits == 36
        assert report.mean_node_bits == pytest.approx(71 / 3)

    def test_duplicate_node_rejected(self):
        report = self._report()
        with pytest.raises(ModelError):
            report.add(NodeSpace(node=2, routing_bits=5))
        assert [entry.node for entry in report.per_node] == [1, 2, 3]
        assert report.total_bits == 71

    def test_bits_per_n_squared(self):
        report = self._report()
        assert report.bits_per_n_squared() == pytest.approx(71 / 9)

    def test_bits_per_rejects_nonpositive(self):
        with pytest.raises(ModelError):
            self._report().bits_per(0)

    def test_summary_mentions_scheme_and_model(self):
        text = self._report().summary()
        assert "test" in text
        assert "II" in text

    def test_empty_report(self):
        report = SpaceReport(
            model=RoutingModel(Knowledge.IA, Labeling.ALPHA),
            scheme_name="empty",
            n=4,
        )
        assert report.total_bits == 0
        assert report.max_node_bits == 0
        assert report.mean_node_bits == 0.0

    def test_node_space_total(self):
        entry = NodeSpace(node=1, routing_bits=5, label_bits=2, aux_bits=3)
        assert entry.total == 10
