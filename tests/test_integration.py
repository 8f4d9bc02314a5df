"""Cross-module integration tests.

These exercise whole pipelines: build → serialise → reinstall → simulate,
codecs over scheme-bearing graphs, and the assembled Table 1.
"""

from __future__ import annotations

import pytest

from repro.analysis import Table1Entry, best_law, format_table1, mean_total_bits, run_size_sweep
from repro.core import (
    available_schemes,
    build_scheme,
    default_model,
    route_message,
    verify_scheme,
)
from repro.graphs import (
    certify_random_graph,
    encode_graph,
    gnp_random_graph,
    path_graph,
)
from repro.incompressibility import Lemma1Codec, evaluate_codec
from repro.kolmogorov import best_estimate
from repro.models import Knowledge, Labeling, RoutingModel
from repro.simulator import BatchKernel, summarize

ALL_PLAIN_SCHEMES = [
    ("full-table", 1.0),
    ("thm1-two-level", 1.0),
    ("thm3-centers", 1.5),
    ("thm4-hub", 2.0),
    ("full-information", 1.0),
]


class TestReinstallPipeline:
    """Serialise every local function, reinstall from bits, route messages."""

    @pytest.mark.parametrize("name,stretch", ALL_PLAIN_SCHEMES)
    def test_decoded_functions_route_identically(
        self, name, stretch, model_ii_alpha
    ):
        graph = gnp_random_graph(28, seed=43)
        scheme = build_scheme(name, graph, model_ii_alpha)
        # Swap every cached function for its decode(encode(...)) twin.
        for u in graph.nodes:
            scheme._function_cache[u] = scheme.decode_function(
                u, scheme.encode_function(u)
            )
        report = verify_scheme(scheme)
        assert report.ok()
        assert report.max_stretch <= stretch


class TestSchemeHierarchy:
    def test_size_ordering_matches_paper(self, model_ii_alpha, model_ii_gamma):
        """Table 1's vertical story on one graph: n² ≥ n log n ≥ n loglog n ≥ n."""
        graph = gnp_random_graph(96, seed=51)
        totals = {}
        for name in ("full-table", "thm1-two-level", "thm3-centers",
                     "thm4-hub", "thm5-probe"):
            totals[name] = build_scheme(
                name, graph, model_ii_alpha
            ).space_report().total_bits
        assert (
            totals["full-table"]
            > totals["thm1-two-level"]
            > totals["thm3-centers"]
            > totals["thm4-hub"]
            > totals["thm5-probe"]
        )

    def test_stretch_size_tradeoff(self, model_ii_alpha):
        """Smaller schemes pay in stretch, exactly as Theorems 1/3/4/5 trade."""
        graph = gnp_random_graph(48, seed=52)
        measured = []
        for name in ("thm1-two-level", "thm3-centers", "thm4-hub", "thm5-probe"):
            scheme = build_scheme(name, graph, model_ii_alpha)
            report = verify_scheme(scheme)
            measured.append(
                (scheme.space_report().total_bits, report.max_stretch)
            )
        sizes = [size for size, _ in measured]
        stretches = [stretch for _, stretch in measured]
        assert sizes == sorted(sizes, reverse=True)
        assert stretches == sorted(stretches)


class TestCodecOnCertifiedGraphs:
    def test_random_graph_is_certified_and_incompressible(self):
        graph = gnp_random_graph(64, seed=7)
        cert = certify_random_graph(graph)
        assert cert.certified
        estimate = best_estimate(encode_graph(graph))
        assert estimate.ratio > 0.9
        report = evaluate_codec(Lemma1Codec(), graph)
        assert report.savings <= 64  # no real compression via Lemma 1 either


class TestSimulatorAgreement:
    @pytest.mark.parametrize("name", available_schemes())
    def test_kernel_lanes_match_route_message(self, name):
        """Differential oracle for the router: on fault-free all-pairs
        traffic both kernel lanes emit one record stream, and every
        message is delivered on the verifier's reference path."""
        if name == "chain-comparison":
            graph = path_graph(32)
        else:
            graph = gnp_random_graph(32, seed=101)
        scheme = build_scheme(name, graph, default_model(name))
        streams = []
        for batch in (True, False):
            kernel = BatchKernel(scheme, batch=batch)
            for u in graph.nodes:
                for w in graph.nodes:
                    if u != w:
                        kernel.inject(u, w)
            streams.append(kernel.run())
        assert streams[0] == streams[1]
        for record in streams[0]:
            assert record.delivered
            reference = route_message(scheme, record.source, record.destination)
            assert record.path == reference.path

    def test_metrics_respect_scheme_guarantee(self, model_ii_alpha):
        graph = gnp_random_graph(32, seed=62)
        scheme = build_scheme("thm3-centers", graph, model_ii_alpha)
        kernel = BatchKernel(scheme)
        for u in range(1, 8):
            for w in range(8, 33):
                kernel.inject(u, w)
        metrics = summarize(kernel.run(), graph)
        assert metrics.delivered_fraction == 1.0
        assert metrics.max_stretch <= scheme.stretch_bound()


class TestTable1Assembly:
    def test_measured_entries_render(self, model_ii_alpha):
        points = run_size_sweep(
            "thm1-two-level", model_ii_alpha, ns=[32, 48, 64], seeds=(0,),
            verify_pairs=None,
        )
        means = mean_total_bits(points)
        fits = best_law(list(means), list(means.values()),
                        candidates=["n", "n log n", "n^2", "n^2 log n"])
        assert fits[0].law == "n^2"
        entry = Table1Entry(
            section="avg-upper",
            knowledge=Knowledge.II,
            labeling=Labeling.ALPHA,
            paper_bound="O(n²)",
            measured=f"{fits[0].constant:.2f} n²",
        )
        text = format_table1([entry])
        assert "n²" in text
