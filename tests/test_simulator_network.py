"""Tests for routing through the kernel with link failures."""

from __future__ import annotations

from repro.core import build_scheme
from repro.graphs import cycle_graph, gnp_random_graph, path_graph
from repro.simulator import BatchKernel, Network
from tests.routing import route_one


class TestBasicRouting:
    def test_delivery_matches_verifier(self, random_graph_32, model_ii_alpha):
        scheme = build_scheme("thm1-two-level", random_graph_32, model_ii_alpha)
        kernel = BatchKernel(scheme)
        for u in (1, 10):
            for w in random_graph_32.nodes:
                if w != u:
                    record = route_one(kernel, u, w)
                    assert record.delivered
                    assert record.path[0] == u and record.path[-1] == w

    def test_records_have_unique_ids(self, model_ia_alpha):
        kernel = BatchKernel(
            build_scheme("full-table", path_graph(4), model_ia_alpha)
        )
        ids = {route_one(kernel, 1, 4).msg_id for _ in range(5)}
        assert len(ids) == 5

    def test_stateful_probe_scheme_routes(self, model_ii_alpha):
        graph = gnp_random_graph(24, seed=32)
        kernel = BatchKernel(build_scheme("thm5-probe", graph, model_ii_alpha))
        record = route_one(kernel, 1, graph.non_neighbors(1)[0])
        assert record.delivered


class TestFailures:
    def test_single_path_drops_on_failed_link(self, model_ia_alpha):
        graph = path_graph(4)
        kernel = BatchKernel(build_scheme("full-table", graph, model_ia_alpha))
        kernel.network.fail_link(2, 3)
        record = route_one(kernel, 1, 4)
        assert not record.delivered
        assert "down" in record.drop_reason

    def test_restore_link(self, model_ia_alpha):
        graph = path_graph(4)
        kernel = BatchKernel(build_scheme("full-table", graph, model_ia_alpha))
        kernel.network.fail_link(2, 3)
        kernel.network.restore_link(2, 3)
        assert route_one(kernel, 1, 4).delivered

    def test_full_information_routes_around(self, model_ii_alpha):
        """The paper's motivation for full-information schemes."""
        graph = cycle_graph(4)  # two shortest paths between opposite corners
        scheme = build_scheme("full-information", graph, model_ii_alpha)
        kernel = BatchKernel(scheme)
        assert route_one(kernel, 1, 3).path == (1, 2, 3)
        kernel.network.fail_link(1, 2)
        record = route_one(kernel, 1, 3)
        assert record.delivered
        assert record.path == (1, 4, 3)

    def test_full_information_beats_single_path_under_failures(
        self, model_ii_alpha
    ):
        from repro.simulator import sample_link_failures

        graph = gnp_random_graph(32, seed=18)
        failures = sample_link_failures(graph, 40, seed=5)
        pairs = [(u, w) for u in range(1, 9) for w in range(9, 25)]

        def delivered(name):
            scheme = build_scheme(name, graph, model_ii_alpha)
            kernel = BatchKernel(scheme, failed_links=failures)
            for u, w in pairs:
                kernel.inject(u, w)
            return sum(record.delivered for record in kernel.run())

        assert delivered("full-information") >= delivered("thm1-two-level")

    def test_failed_links_listed(self, model_ia_alpha):
        network = Network(build_scheme("full-table", path_graph(3), model_ia_alpha))
        network.fail_link(1, 2)
        assert network.failed_links == {frozenset((1, 2))}


class TestGammaAddressing:
    def test_complex_addresses_flow_through(self, model_ii_gamma):
        graph = gnp_random_graph(24, seed=3)
        scheme = build_scheme("thm2-neighbor-labels", graph, model_ii_gamma)
        kernel = BatchKernel(scheme)
        for w in (5, 20):
            record = route_one(kernel, 1, w)
            assert record.delivered
            assert record.hops <= 2
