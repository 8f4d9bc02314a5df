"""Per-instance certification of Kolmogorov-randomness properties.

A sampled ``G(n, 1/2)`` graph is ``c log n``-random with probability at
least ``1 - 1/n^c``, but the compact constructions need three concrete
consequences (Lemmas 1–3), so instead of *assuming* randomness we *check*
the consequences on each instance:

1. every degree lies in the Lemma 1 band around ``(n-1)/2``;
2. the diameter is exactly 2 (Lemma 2);
3. from every node, the least-neighbour cover prefix is ``O(log n)``
   (Lemma 3).

The certificate holds those three checks and nothing else.  The
compression-based randomness-deficiency estimate of ``E(G)`` is
:func:`randomness_deficiency`, a separate call for the experiments that
visualise incompressibility: none of the lemmas reads it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.graphs.context import get_context
from repro.graphs.encoding import edge_code_length, encode_graph
from repro.graphs.graph import LabeledGraph
from repro.graphs.properties import (
    degree_statistics,
    least_cover_prefixes,
    lemma3_bound,
)
from repro.kolmogorov import best_estimate

__all__ = ["RandomnessCertificate", "certify_random_graph", "randomness_deficiency"]


@dataclass(frozen=True)
class RandomnessCertificate:
    """Results of checking the Lemma 1–3 properties on one graph."""

    n: int
    degrees_in_band: bool
    max_degree_deviation: int
    lemma1_scale: float
    diameter_two: bool
    max_cover_prefix: int
    lemma3_scale: float
    cover_within_bound: bool

    @property
    def certified(self) -> bool:
        """True when all three structural lemmas hold on this instance."""
        return self.degrees_in_band and self.diameter_two and self.cover_within_bound


def randomness_deficiency(graph: LabeledGraph) -> int:
    """Estimated deficiency ``n(n-1)/2 - C̃(E(G))``, clamped at zero.

    Small values mean the edge string resists compression, i.e. the graph
    *behaves* Kolmogorov random.  (Compression gives an upper bound on
    ``C``, hence a lower bound of 0 on the true deficiency; the clamp keeps
    header overheads from producing negative numbers.)
    """
    code = encode_graph(graph)
    estimate = best_estimate(code)
    return max(edge_code_length(graph.n) - estimate.bits, 0)


def certify_random_graph(
    graph: LabeledGraph, c: float = 3.0, slack: float = 1.0
) -> RandomnessCertificate:
    """Check Lemmas 1–3 on a concrete graph.

    ``c`` selects the randomness class ``c log n``; ``slack`` is the
    constant hidden in the O(·) of Lemmas 1 and 3 (the asymptotic statements
    fix no constant, so the certificate accepts deviations up to
    ``slack ×`` the respective scale).
    """
    n = graph.n
    stats = degree_statistics(graph, deficiency=c * max(n, 2).bit_length())
    # Lemma 2 off the distances within two hops: every pair reached and
    # some pair two hops apart.  On a diameter-2 graph that matrix is the
    # full one, which the context adopts, so certification pays one
    # product; a graph failing Lemma 2 never derives its full matrix.
    ctx = get_context(graph)
    near = ctx.distances(max_distance=2)
    diameter_ok = n > 1 and not (near < 0).any() and bool((near == 2).any())
    if diameter_ok:
        prefixes = least_cover_prefixes(ctx.distances(), ctx.least_hop_ranks())
        max_prefix = int(prefixes.max())
    else:
        max_prefix = n
    scale3 = lemma3_bound(n, c)
    return RandomnessCertificate(
        n=n,
        degrees_in_band=stats.max_deviation <= slack * stats.lemma1_bound,
        max_degree_deviation=stats.max_deviation,
        lemma1_scale=stats.lemma1_bound,
        diameter_two=diameter_ok,
        max_cover_prefix=max_prefix,
        lemma3_scale=scale3,
        cover_within_bound=max_prefix <= slack * scale3,
    )
