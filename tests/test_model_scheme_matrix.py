"""The full scheme × model compatibility matrix.

The paper's Table 1 is indexed by the nine models; this test pins down, for
every registered scheme and every model, whether construction succeeds —
so a change that silently relaxes or tightens a model restriction fails
loudly here.
"""

from __future__ import annotations

import pytest

from repro.core import available_schemes, build_scheme, default_model
from repro.errors import ModelError, SchemeBuildError
from repro.graphs import gnp_random_graph, path_graph
from repro.models import Knowledge, Labeling, RoutingModel, all_models

# One dense certified graph all diameter-2 builders accept.
GRAPH = gnp_random_graph(32, seed=101)
CHAIN = path_graph(12)

# scheme → set of (knowledge, labeling) pairs that must build.
EXPECTED = {
    "full-table": {
        (k, l) for k in Knowledge for l in Labeling
    },
    "full-information": {
        (k, l) for k in Knowledge for l in Labeling
    },
    "multi-interval": {
        (k, l) for k in Knowledge for l in Labeling
    },
    "thm1-two-level": {
        (k, l)
        for k in (Knowledge.IB, Knowledge.II)
        for l in Labeling
    },
    "thm5-probe": {
        (Knowledge.II, l) for l in Labeling
    },
    "thm3-centers": {
        (Knowledge.II, l) for l in Labeling
    },
    "thm4-hub": {
        (Knowledge.II, l) for l in Labeling
    },
    "thm2-neighbor-labels": {
        (Knowledge.II, Labeling.GAMMA),
    },
    "interval": {
        (k, l)
        for k in Knowledge
        for l in (Labeling.BETA, Labeling.GAMMA)
    },
    "tree-cover": {
        (k, Labeling.GAMMA) for k in Knowledge
    },
}


@pytest.mark.parametrize("scheme_name", sorted(EXPECTED))
def test_scheme_model_matrix(scheme_name):
    expected = EXPECTED[scheme_name]
    for model in all_models():
        key = (model.knowledge, model.labeling)
        graph = CHAIN if scheme_name == "chain-comparison" else GRAPH
        if key in expected:
            scheme = build_scheme(scheme_name, graph, model)
            assert scheme.model is model
        else:
            with pytest.raises((SchemeBuildError, ModelError)):
                build_scheme(scheme_name, graph, model)


def test_chain_scheme_matrix():
    expected = {
        (k, l)
        for k in Knowledge
        for l in (Labeling.BETA, Labeling.GAMMA)
    }
    for model in all_models():
        key = (model.knowledge, model.labeling)
        if key in expected:
            build_scheme("chain-comparison", CHAIN, model)
        else:
            with pytest.raises((SchemeBuildError, ModelError)):
                build_scheme("chain-comparison", CHAIN, model)


@pytest.mark.parametrize("scheme_name", available_schemes())
def test_scheme_builds_under_its_default_model(scheme_name):
    """What the CLI and the sweep builder fall back to must be a model
    the scheme accepts."""
    graph = CHAIN if scheme_name == "chain-comparison" else GRAPH
    model = default_model(scheme_name)
    assert build_scheme(scheme_name, graph, model).model is model


def test_matrix_covers_all_registered_schemes():
    assert set(EXPECTED) | {"chain-comparison"} == set(available_schemes())
