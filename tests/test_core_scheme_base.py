"""Tests for the scheme abstractions, registry and verification harness."""

from __future__ import annotations

import itertools
import random

import pytest

from repro.core import (
    SCHEME_BUILDERS,
    available_schemes,
    build_scheme,
    route_message,
    verify_scheme,
)
from repro.core import verification
from repro.core.scheme import HopDecision
from repro.errors import RoutingError, SchemeBuildError
from repro.graphs import complete_graph, gnp_random_graph, path_graph
from repro.models import Knowledge, Labeling, RoutingModel


class TestLocalRoutingFunction:
    def test_node_property(self):
        scheme = build_scheme(
            "full-table", path_graph(7), RoutingModel(Knowledge.IA, Labeling.ALPHA)
        )
        assert scheme.function(7).node == 7

    def test_hop_decision_defaults(self):
        decision = HopDecision(4)
        assert decision.next_node == 4
        assert decision.state is None


class TestRegistry:
    def test_known_schemes(self):
        names = available_schemes()
        assert "thm1-two-level" in names
        assert "thm2-neighbor-labels" in names
        assert "thm3-centers" in names
        assert "thm4-hub" in names
        assert "thm5-probe" in names
        assert "full-table" in names
        assert "full-information" in names
        assert "interval" in names

    def test_names_sorted(self):
        names = available_schemes()
        assert list(names) == sorted(names)

    def test_registry_names_match_classes(self):
        for name, cls in SCHEME_BUILDERS.items():
            assert cls.scheme_name == name

    def test_build_dispatches(self, model_ii_alpha):
        graph = gnp_random_graph(24, seed=6)
        scheme = build_scheme("thm4-hub", graph, model_ii_alpha)
        assert scheme.scheme_name == "thm4-hub"
        assert scheme.graph is graph
        assert scheme.model is model_ii_alpha

    def test_build_passes_params(self, model_ii_alpha):
        graph = gnp_random_graph(24, seed=6)
        scheme = build_scheme("thm4-hub", graph, model_ii_alpha, hub=3)
        assert scheme.hub == 3

    def test_unknown_name(self, model_ii_alpha):
        with pytest.raises(SchemeBuildError, match="unknown scheme"):
            build_scheme("magic", gnp_random_graph(8, seed=0), model_ii_alpha)


class TestVerification:
    def test_route_message_trace(self, model_ia_alpha):
        scheme = build_scheme("full-table", path_graph(4), model_ia_alpha)
        trace = route_message(scheme, 1, 4)
        assert trace.delivered
        assert trace.hops == 3
        assert trace.source == 1 and trace.destination == 4

    def test_verify_counts_all_ordered_pairs(self, model_ia_alpha):
        scheme = build_scheme("full-table", path_graph(5), model_ia_alpha)
        report = verify_scheme(scheme)
        assert report.pairs_checked == 5 * 4
        assert report.all_delivered

    def test_sampled_verification(self, model_ii_alpha):
        graph = gnp_random_graph(30, seed=15)
        scheme = build_scheme("thm1-two-level", graph, model_ii_alpha)
        report = verify_scheme(scheme, sample_pairs=50, seed=1)
        assert report.pairs_checked == 50

    def test_sampled_pairs_match_sampling_the_pair_list(
        self, model_ii_alpha, monkeypatch
    ):
        """Sampled pair indices give the pairs, in order, that sampling the
        list of every ordered pair gives; a sample as large as that list
        routes every pair in ``permutations`` order."""
        routed = []
        walk = verification.route_message

        def spy(scheme, source, destination):
            routed.append((source, destination))
            return walk(scheme, source, destination)

        monkeypatch.setattr(verification, "route_message", spy)
        for n in range(2, 10):
            scheme = build_scheme("full-table", complete_graph(n), model_ii_alpha)
            every = list(itertools.permutations(scheme.graph.nodes, 2))
            total = len(every)
            for k in (1, total - 1, total, None):
                for seed in (0, 3):
                    routed.clear()
                    report = verify_scheme(scheme, sample_pairs=k, seed=seed)
                    expected = (
                        every if k is None or k == total
                        else random.Random(seed).sample(every, k)
                    )
                    assert routed == expected, (n, k, seed)
                    assert report.pairs_checked == len(expected)

    def test_violations_reported(self, model_ii_alpha):
        """A scheme advertising an impossible stretch gets flagged."""
        graph = gnp_random_graph(24, seed=6)
        scheme = build_scheme("thm4-hub", graph, model_ii_alpha)
        scheme.stretch_bound = lambda: 1.0  # lie about the guarantee
        report = verify_scheme(scheme)
        if report.max_stretch > 1.0:
            assert report.violations
            assert not report.ok()

    def test_mean_stretch_between_one_and_max(self, model_ii_alpha):
        graph = gnp_random_graph(24, seed=6)
        report = verify_scheme(build_scheme("thm3-centers", graph, model_ii_alpha))
        assert 1.0 <= report.mean_stretch <= report.max_stretch

    def test_repr_mentions_model(self, model_ii_alpha):
        graph = gnp_random_graph(24, seed=6)
        scheme = build_scheme("thm5-probe", graph, model_ii_alpha)
        assert "II" in repr(scheme)
