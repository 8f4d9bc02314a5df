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
from repro.graphs.context import CTX_COUNTER
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
        """Lemma 2 agrees with the adjacency-product check, and the
        distances certification leaves behind are the full matrix: one
        distance product, adopted on a diameter-2 graph and never
        extended to the full matrix on a graph that fails Lemma 2."""
        graph = _LEMMA2_GRAPHS[name]()
        clear_context_cache()
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            cert = certify_random_graph(graph)
            ctx = get_context(graph)
            assert cert.diameter_two == is_diameter_two(graph)
            assert ctx.has_cached_distances == cert.diameter_two
            counts = {
                op: registry.counter(CTX_COUNTER, kind="distances", op=op).value
                for op in ("miss", "adopt")
            }
            assert counts == {"miss": 1, "adopt": int(cert.diameter_two)}
            np.testing.assert_array_equal(
                ctx.distances(), distance_matrix(graph)
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
