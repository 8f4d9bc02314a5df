"""Graph substrate: topologies, ports, encodings and random-graph structure.

The package implements the paper's network model from scratch:

* :class:`~repro.graphs.graph.LabeledGraph` — static undirected graphs on
  nodes ``1..n``;
* :class:`~repro.graphs.ports.PortAssignment` — the local edge labels of
  models IA/IB;
* :mod:`~repro.graphs.encoding` — the canonical ``E(G)`` bit string of
  Definition 2;
* :mod:`~repro.graphs.generators` — ``G(n, 1/2)`` samples, the Figure 1
  lower-bound family, and deterministic test families;
* :mod:`~repro.graphs.properties` — the structural consequences of
  randomness (Lemmas 1–3, Claim 1);
* :mod:`~repro.graphs.randomness` — per-instance certification;
* :mod:`~repro.graphs.context` — the shared per-graph memoisation layer
  (:class:`~repro.graphs.context.GraphContext`) every downstream consumer
  pulls derived objects from.
"""

from repro.graphs.context import (
    GraphContext,
    clear_context_cache,
    get_context,
    structural_fingerprint,
)
from repro.graphs.encoding import (
    decode_graph,
    edge_code_length,
    edge_index,
    encode_graph,
    index_to_edge,
)
from repro.graphs.generators import (
    complete_graph,
    cycle_graph,
    gnp_random_graph,
    grid_graph,
    lower_bound_graph,
    lower_bound_graph_variant,
    lower_bound_inner_nodes,
    lower_bound_middle_nodes,
    lower_bound_outer_nodes,
    path_graph,
    random_graph_stream,
    random_tree,
    star_graph,
    torus_graph,
)
from repro.graphs.graph import LabeledGraph
from repro.graphs.ports import PortAssignment
from repro.graphs.properties import (
    DegreeStatistics,
    claim1_remainders,
    common_neighbors,
    cover_prefix_length,
    covering_sequence,
    degree_statistics,
    diameter,
    distance_matrix,
    eccentricity,
    min_common_neighbors,
    is_diameter_two,
    least_cover_prefixes,
    least_hop_ranks,
    lemma3_bound,
)
from repro.graphs.randomness import (
    RandomnessCertificate,
    certify_random_graph,
    randomness_deficiency,
)

__all__ = [
    "DegreeStatistics",
    "GraphContext",
    "LabeledGraph",
    "PortAssignment",
    "RandomnessCertificate",
    "certify_random_graph",
    "claim1_remainders",
    "clear_context_cache",
    "common_neighbors",
    "min_common_neighbors",
    "complete_graph",
    "cover_prefix_length",
    "covering_sequence",
    "cycle_graph",
    "decode_graph",
    "degree_statistics",
    "diameter",
    "distance_matrix",
    "eccentricity",
    "edge_code_length",
    "edge_index",
    "encode_graph",
    "get_context",
    "gnp_random_graph",
    "grid_graph",
    "index_to_edge",
    "is_diameter_two",
    "least_cover_prefixes",
    "least_hop_ranks",
    "lemma3_bound",
    "lower_bound_graph",
    "lower_bound_graph_variant",
    "lower_bound_inner_nodes",
    "lower_bound_middle_nodes",
    "lower_bound_outer_nodes",
    "path_graph",
    "random_graph_stream",
    "random_tree",
    "randomness_deficiency",
    "star_graph",
    "structural_fingerprint",
    "torus_graph",
]
