"""Tests for randomness certification and deficiency estimates."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs import (
    LabeledGraph,
    certify_random_graph,
    clear_context_cache,
    complete_graph,
    distance_matrix,
    get_context,
    gnp_random_graph,
    is_diameter_two,
    path_graph,
    randomness_deficiency,
    star_graph,
)
from repro.graphs.context import CTX_COUNTER, DISTANCE_PRODUCTS
from repro.graphs.encoding import edge_code_length
from repro.observability import MetricsRegistry, set_registry

_LEMMA2_GRAPHS = {
    "n=1": lambda: LabeledGraph(1),
    "n=2 edge": lambda: LabeledGraph(2, [(1, 2)]),
    "n=2 empty": lambda: LabeledGraph(2),
    "empty": lambda: LabeledGraph(9),
    "complete": lambda: complete_graph(12),
    "path": lambda: path_graph(10),
    "gnp p=0.05": lambda: gnp_random_graph(40, p=0.05, seed=3),
    "gnp p=0.5": lambda: gnp_random_graph(40, p=0.5, seed=3),
    "gnp n=256 p=0.5": lambda: gnp_random_graph(256, seed=0),
    "gnp p=0.95": lambda: gnp_random_graph(40, p=0.95, seed=3),
}


class TestCertification:
    def test_random_graphs_certify(self):
        for seed in range(4):
            cert = certify_random_graph(gnp_random_graph(64, seed=seed))
            assert cert.certified, cert

    def test_certificate_fields_consistent(self):
        cert = certify_random_graph(gnp_random_graph(48, seed=11))
        assert cert.n == 48
        assert cert.max_cover_prefix <= cert.lemma3_scale * 1.0 + 1
        assert cert.max_degree_deviation <= cert.lemma1_scale

    def test_star_fails_certification(self):
        cert = certify_random_graph(star_graph(128))
        assert not cert.certified
        assert not cert.degrees_in_band

    def test_path_fails_diameter(self):
        cert = certify_random_graph(path_graph(32))
        assert not cert.diameter_two
        assert not cert.certified

    def test_complete_graph_fails(self):
        cert = certify_random_graph(complete_graph(16))
        assert not cert.certified

    @pytest.mark.parametrize("name", sorted(_LEMMA2_GRAPHS))
    def test_lemma2_read_off_the_two_hop_distances(self, name):
        """Lemma 2 agrees with the adjacency-product check, read off the
        context's one distance matrix: certification derives it once, in
        one product on G(n, 1/2), and only a graph that passes Lemma 2
        reads it again (Lemma 3's ranks).  The memoised matrix is the
        full one on every graph."""
        graph = _LEMMA2_GRAPHS[name]()
        clear_context_cache()
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            cert = certify_random_graph(graph)
            assert cert.diameter_two == is_diameter_two(graph)
            ops = {
                dict(metric.labels)["op"]: metric.value
                for metric in registry.metrics()
                if metric.name == CTX_COUNTER
                and dict(metric.labels)["kind"] == "distances"
            }
            expected = {"miss": 1, "hit": 1} if cert.diameter_two else {"miss": 1}
            assert ops == expected
            assert cert.diameter_two or "p=0.5" not in name
            if cert.diameter_two:
                gauge = registry.gauge(DISTANCE_PRODUCTS, n=graph.n)
                assert gauge.value == 1
            np.testing.assert_array_equal(
                get_context(graph).distances(), distance_matrix(graph)
            )
        finally:
            set_registry(previous)
            clear_context_cache()


class TestDeficiency:
    def test_random_graph_incompressible(self):
        """A G(n,1/2) edge string should resist real compressors."""
        graph = gnp_random_graph(64, seed=5)
        deficiency = randomness_deficiency(graph)
        assert deficiency <= 0.05 * edge_code_length(64)

    def test_structured_graph_compresses(self):
        graph = star_graph(64)
        deficiency = randomness_deficiency(graph)
        assert deficiency > 0.5 * edge_code_length(64)

    def test_complete_graph_compresses_fully(self):
        deficiency = randomness_deficiency(complete_graph(64))
        assert deficiency > 0.8 * edge_code_length(64)

    def test_deficiency_nonnegative(self):
        assert randomness_deficiency(gnp_random_graph(24, seed=1)) >= 0
