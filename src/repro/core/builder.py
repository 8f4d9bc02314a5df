"""Scheme registry and a single entry point for building schemes by name.

Benches and examples refer to schemes by their string name (the ones used
in DESIGN.md's experiment index); :func:`build_scheme` dispatches to the
right class and surfaces the paper's model restrictions as build errors.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.errors import SchemeBuildError
from repro.graphs import GraphContext, LabeledGraph, get_context
from repro.models import Knowledge, Labeling, RoutingModel
from repro.observability import profile_section
from repro.core.centers import CenterScheme
from repro.core.chain import ChainComparisonScheme
from repro.core.full_information import FullInformationScheme
from repro.core.full_table import FullTableScheme
from repro.core.hub import HubScheme
from repro.core.interval import IntervalRoutingScheme
from repro.core.multi_interval import MultiIntervalScheme
from repro.core.neighbor_labels import NeighborLabelScheme
from repro.core.probe import ProbeScheme
from repro.core.scheme import RoutingScheme
from repro.core.tree_cover import TreeCoverScheme
from repro.core.two_level import TwoLevelScheme

__all__ = [
    "SCHEME_BUILDERS",
    "available_schemes",
    "build_scheme",
    "default_model",
]

_Builder = Callable[..., RoutingScheme]

SCHEME_BUILDERS: Dict[str, _Builder] = {
    FullTableScheme.scheme_name: FullTableScheme,
    TwoLevelScheme.scheme_name: TwoLevelScheme,
    NeighborLabelScheme.scheme_name: NeighborLabelScheme,
    CenterScheme.scheme_name: CenterScheme,
    HubScheme.scheme_name: HubScheme,
    ProbeScheme.scheme_name: ProbeScheme,
    FullInformationScheme.scheme_name: FullInformationScheme,
    IntervalRoutingScheme.scheme_name: IntervalRoutingScheme,
    ChainComparisonScheme.scheme_name: ChainComparisonScheme,
    TreeCoverScheme.scheme_name: TreeCoverScheme,
    MultiIntervalScheme.scheme_name: MultiIntervalScheme,
}


def available_schemes() -> tuple[str, ...]:
    """Names accepted by :func:`build_scheme`, in a stable order."""
    return tuple(sorted(SCHEME_BUILDERS))


def default_model(name: str) -> RoutingModel:
    """The model a scheme is built under when the caller names none."""
    if name in ("thm2-neighbor-labels", "tree-cover"):
        return RoutingModel(Knowledge.II, Labeling.GAMMA)
    if name in ("interval", "chain-comparison"):
        return RoutingModel(Knowledge.II, Labeling.BETA)
    return RoutingModel(Knowledge.II, Labeling.ALPHA)


def build_scheme(
    name: str,
    graph: LabeledGraph,
    model: RoutingModel,
    ctx: Optional[GraphContext] = None,
    **params: Any,
) -> RoutingScheme:
    """Build the named scheme for a graph under a model.

    ``ctx`` is the shared :class:`~repro.graphs.context.GraphContext`; by
    default the process-wide context of ``graph`` is used, so successive
    builds (and the verifier and simulator after them) reuse one set of
    derivations.  Pass an explicit context to pin several stages of a
    pipeline to the same instance.

    Raises :class:`~repro.errors.SchemeBuildError` for unknown names and
    propagates the scheme's own model/topology errors.
    """
    try:
        builder = SCHEME_BUILDERS[name]
    except KeyError as exc:
        raise SchemeBuildError(
            f"unknown scheme {name!r}; available: {', '.join(available_schemes())}"
        ) from exc
    if ctx is None:
        ctx = get_context(graph)
    with profile_section(f"build.{name}"):
        return builder(graph, model, ctx=ctx, **params)
