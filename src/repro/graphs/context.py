"""GraphContext — the shared derived-computation layer.

The paper's constructions (Theorems 1–5), the verifier, the simulator and
the lower-bound machinery all consume the same few derived objects:
all-pairs distances, per-root BFS trees, the identity port table, the
next-hop matrix.  Before this layer existed every consumer recomputed them
independently — a build→verify→simulate pipeline paid for the ``O(n·m)``
distance matrix three times on the *same* immutable graph.  Compact-routing
practice (Thorup–Zwick landmark schemes and their descendants) hoists that
shared preprocessing into one reusable stage; :class:`GraphContext` is that
stage here.

One context exists per graph (see :func:`get_context`), keyed on a cheap
structural fingerprint so that *equal* graphs — not just the same object —
share their derivations.  Every accessor is memoised with hit/miss
counters in the process-wide :class:`~repro.observability.registry.
MetricsRegistry` (``repro_graph_ctx_total``), and every fresh computation
runs inside a ``ctx.<kind>`` profiling section, so reuse is observable,
not assumed.  The corruption/heal path additionally sources its pristine
table knowledge from :meth:`GraphContext.pristine_bits` and can drop
every memo with :meth:`GraphContext.invalidate`.
"""

from __future__ import annotations

import zlib
from collections import OrderedDict
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
)

import numpy as np

from repro.errors import GraphError
from repro.graphs.graph import LabeledGraph
from repro.graphs.ports import PortAssignment
from repro.graphs.properties import _seidel_distances, least_hop_ranks
from repro.observability.profiling import profile_section
from repro.observability.registry import get_registry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core imports graphs)
    from repro.bitio import BitArray
    from repro.core.scheme import RoutingScheme

__all__ = [
    "GraphContext",
    "Fingerprint",
    "structural_fingerprint",
    "get_context",
    "clear_context_cache",
    "context_cache_size",
]

Fingerprint = Tuple[int, int, int]

CTX_COUNTER = "repro_graph_ctx_total"
"""Counter name for per-accessor cache traffic (labels: ``kind``, ``op``)."""
CTX_INVALIDATIONS = "repro_graph_ctx_invalidations_total"
"""Counter name for explicit :meth:`GraphContext.invalidate` calls.

Full flushes increment the plain (unlabelled) counter; selective drops
increment it once per derivation ``kind`` actually dropped, labelled with
that kind, so dashboards can tell a targeted invalidation from an
all-or-nothing flush.
"""
CTX_STORE_COUNTER = "repro_graph_ctx_store_total"
"""Counter name for the process-wide context store (label: ``op``)."""
LEAST_HOP_PASSES = "repro_least_hop_passes"
"""Gauge name (label: ``n``): the passes the last
:meth:`GraphContext.least_hop_ranks` derivation took — its largest rank
over pairs at distance ≥ 2, plus one.  On a ``c log n``-random graph
Lemma 3 bounds it by ``(c+3) log n``."""
DISTANCE_PRODUCTS = "repro_graph_ctx_distance_products"
"""Gauge name (label: ``n``): the dense ``n × n`` products the last fresh
:meth:`GraphContext.distances` derivation took (Seidel's algorithm, see
:func:`~repro.graphs.properties.distance_matrix`): 1 on a diameter-2
graph and for any ``max_distance=2`` request, ``2⌈log₂ D⌉ − 1`` on a
connected graph of diameter ``D ≥ 2`` (15 on ``path(256)``).  Adopting or
truncating a memoised matrix takes none and leaves the gauge alone."""


def structural_fingerprint(graph: LabeledGraph) -> Fingerprint:
    """A cheap structural key: ``(n, edge_count, crc32 of the adjacency bits)``.

    The CRC runs over the packed boolean adjacency matrix (which
    :class:`LabeledGraph` caches anyway), so the fingerprint costs
    ``O(n²/8)`` bytes of hashing — negligible next to any derivation it
    guards.  Equal graphs always produce equal fingerprints; the store in
    :func:`get_context` additionally confirms graph equality before
    aliasing two objects onto one context, so a CRC collision can never
    alias two *different* graphs.
    """
    packed = np.packbits(graph.adjacency_matrix())
    return (graph.n, graph.edge_count, zlib.crc32(packed.tobytes()))


class GraphContext:
    """Per-graph memoisation of every derivation the stack shares.

    Accessors (all memoised, all counted):

    * :meth:`distances` — all-pairs hop distances (optionally truncated);
    * :meth:`bfs_tree` / :meth:`ball` — per-root BFS parents and hop-balls;
    * :meth:`least_hop_ranks` — Lemma 3 for every node at once: the rank
      of each node's least shortest-path neighbour towards every
      destination.  Full-table's port table (and so multi-interval,
      Claim 3 and the Theorem 7/8 tables) is read off it through the
      port assignment;
      Theorem 1's least plans, Theorem 2's covers, Theorem 4's hub
      indices and certification's cover prefixes read it;
    * :meth:`port_table` — the canonical identity
      :class:`~repro.graphs.ports.PortAssignment` of model IB, whose port
      array full-table gathers through when given no other ports;
    * :meth:`pristine_bits` — a scheme's serialised local functions (the
      corruption self-healer's knowledge source);
    * :meth:`next_hop_matrix` — a scheme's dense next-hop lookup (the
      kernel's quiescent drain): the installed functions' stacked rows,
      each read off the function's own table where it has a fast form.

    The context never observes graph mutation (graphs are immutable); the
    explicit :meth:`invalidate` exists for the corruption/heal path and for
    benches and tests that must force recomputation.
    """

    __slots__ = ("_graph", "_fingerprint", "_cache", "_aliases")

    def __init__(
        self,
        graph: LabeledGraph,
        fingerprint: Optional[Fingerprint] = None,
    ) -> None:
        self._graph = graph
        self._fingerprint = (
            fingerprint if fingerprint is not None else structural_fingerprint(graph)
        )
        self._cache: Dict[Tuple[str, Hashable], Any] = {}
        self._aliases: List[LabeledGraph] = []

    # -- identity ------------------------------------------------------------

    @property
    def graph(self) -> LabeledGraph:
        """The graph every derivation belongs to."""
        return self._graph

    @property
    def fingerprint(self) -> Fingerprint:
        """The structural key this context is stored under."""
        return self._fingerprint

    # -- observability -------------------------------------------------------

    def cached_kinds(self) -> Set[str]:
        """The derivation kinds currently memoised (first key component)."""
        return {kind for kind, _ in self._cache}

    @property
    def has_cached_distances(self) -> bool:
        """Whether the full all-pairs matrix is memoised right now."""
        return ("distances", None) in self._cache

    # -- memoisation core ----------------------------------------------------

    def _memo(self, kind: str, key: Hashable, compute: Callable[[], Any]) -> Any:
        full_key = (kind, key)
        if full_key in self._cache:
            get_registry().counter(CTX_COUNTER, kind=kind, op="hit").inc()
            return self._cache[full_key]
        get_registry().counter(CTX_COUNTER, kind=kind, op="miss").inc()
        with profile_section(f"ctx.{kind}"):
            value = compute()
        self._cache[full_key] = value
        return value

    def invalidate(self, kinds: Optional[Iterable[str]] = None) -> int:
        """Drop memoised derivations — all of them, or only ``kinds``.

        With no argument every memo is dropped (the corruption/heal
        escape hatch); with ``kinds`` only the derivations of the named
        kinds go and the rest of the cache survives.

        Returns the number of cache entries dropped.  A full flush
        increments the unlabelled invalidation counter, a selective drop
        increments it once per kind actually dropped, labelled with that
        kind — see :data:`CTX_INVALIDATIONS`.
        """
        if kinds is None:
            dropped = len(self._cache)
            self._cache.clear()
            get_registry().counter(CTX_INVALIDATIONS).inc()
            return dropped
        kind_set = set(kinds)
        doomed = [key for key in self._cache if key[0] in kind_set]
        for key in doomed:
            del self._cache[key]
        registry = get_registry()
        for kind in sorted({kind for kind, _ in doomed}):
            registry.counter(CTX_INVALIDATIONS, kind=kind).inc()
        return len(doomed)

    # -- churn carry-forward --------------------------------------------------

    def adopt_pristine_bits(
        self, scheme: "RoutingScheme", node: int, bits: "BitArray"
    ) -> None:
        """Seed the pristine-bits memo for ``(scheme, node)`` without encoding.

        The incremental repair path carries the serialised tables of nodes
        a topology mutation did *not* dirty into the successor graph's
        context, so the heal machinery's knowledge source stays warm and
        the untouched tables are provably the same bits — no re-encode
        ever happens for them.
        """
        self._cache[("pristine_bits", (id(scheme), node))] = (scheme, bits)
        get_registry().counter(CTX_COUNTER, kind="pristine_bits", op="adopt").inc()

    # -- derivations ---------------------------------------------------------

    def distances(self, max_distance: Optional[int] = None) -> np.ndarray:
        """All-pairs hop distances (``-1`` for unreached pairs), memoised.

        A bounded request (``max_distance=k``) is derived from the full
        matrix for free whenever the full matrix is already cached — the
        common case in a pipeline that builds a shortest-path scheme first.
        Conversely, a full request adopts a cached bounded matrix that
        reached every pair (no ``-1``): it already is the full matrix, so
        certification's ``max_distance=2`` product on a diameter-2 graph
        serves every later consumer (counted as ``op="adopt"``).
        The returned array is marked read-only: it is shared by every
        consumer of this graph.  Each fresh derivation sets the
        :data:`DISTANCE_PRODUCTS` gauge.
        """

        def _freeze(matrix: np.ndarray) -> np.ndarray:
            matrix.setflags(write=False)
            return matrix

        def _derive() -> np.ndarray:
            matrix, products = _seidel_distances(self._graph, max_distance)
            get_registry().gauge(DISTANCE_PRODUCTS, n=self._graph.n).set(products)
            return _freeze(matrix)

        if max_distance is None:
            if not self.has_cached_distances:
                for (kind, _), bounded in list(self._cache.items()):
                    if kind == "distances" and not (bounded < 0).any():
                        self._cache[("distances", None)] = bounded
                        get_registry().counter(
                            CTX_COUNTER, kind="distances", op="adopt"
                        ).inc()
                        return bounded
            return self._memo("distances", None, _derive)
        if self.has_cached_distances:
            # Truncating the cached full matrix is O(n²) masking — count it
            # as a derivation of its own so the reuse stays visible.
            def _truncate() -> np.ndarray:
                full = self._cache[("distances", None)]
                bounded = full.copy()
                bounded[(full > max_distance) | (full < 0)] = -1
                return _freeze(bounded)

            return self._memo("distances", max_distance, _truncate)
        return self._memo("distances", max_distance, _derive)

    def least_hop_ranks(self) -> np.ndarray:
        """:func:`~repro.graphs.properties.least_hop_ranks` over the
        memoised distances, frozen read-only.

        Entry ``[u - 1, w - 1]`` is the index, in ``u``'s sorted neighbour
        list, of ``u``'s least neighbour on a shortest path to ``w``; ``-1``
        where ``w = u`` or ``w`` is unreachable.  The distances are derived
        first, in their own ``ctx.distances`` section, so that section
        never nests inside this one.  Each derivation sets the
        :data:`LEAST_HOP_PASSES` gauge.
        """
        if ("least_hop_ranks", None) not in self._cache:
            self.distances()

        def _compute() -> np.ndarray:
            dist = self._cache[("distances", None)]
            ranks = least_hop_ranks(self._graph, dist)
            passes = int(np.max(ranks, where=dist >= 2, initial=-1)) + 1
            get_registry().gauge(LEAST_HOP_PASSES, n=self._graph.n).set(passes)
            ranks.setflags(write=False)
            return ranks

        return self._memo("least_hop_ranks", None, _compute)

    def _bfs(self, root: int) -> Tuple[Dict[int, int], Dict[int, int]]:
        """Parents and depths of the BFS tree rooted at ``root`` (memoised).

        Covers the reachable component only; callers needing connectivity
        check ``len(parents) == graph.n`` themselves.
        """

        def _compute() -> Tuple[Dict[int, int], Dict[int, int]]:
            graph = self._graph
            parent = {root: root}
            depth = {root: 0}
            frontier = [root]
            level = 0
            while frontier:
                level += 1
                next_frontier: List[int] = []
                for u in frontier:
                    for v in graph.neighbors(u):
                        if v not in parent:
                            parent[v] = u
                            depth[v] = level
                            next_frontier.append(v)
                frontier = next_frontier
            return parent, depth

        return self._memo("bfs_tree", root, _compute)

    def bfs_tree(self, root: int) -> Dict[int, int]:
        """Parent pointers of the BFS tree at ``root`` (``parent[root] = root``).

        Returns a copy — BFS trees are handed to callers that decorate
        them; the memoised original stays pristine.
        """
        parent, _ = self._bfs(root)
        return dict(parent)

    def ball(self, center: int, radius: int) -> Set[int]:
        """Nodes within hop distance ``radius`` of ``center``.

        Derived from the memoised BFS depths, so regional fault generators
        probing several radii around one epicentre pay for one traversal.
        """
        if radius < 0:
            raise GraphError(f"radius must be >= 0, got {radius}")
        _, depth = self._bfs(center)
        return {v for v, d in depth.items() if d <= radius}

    def port_table(self) -> PortAssignment:
        """The canonical identity port assignment of model IB (memoised).

        Every scheme that normalises its ports, and every full-table build
        given no ports, reads this one object: its ``(n, Δ+1)`` port array
        and the port → neighbour array derived from it, each built once
        per graph in a few numpy passes.
        """
        return self._memo(
            "port_table", None, lambda: PortAssignment.identity(self._graph)
        )

    def pristine_bits(self, scheme: "RoutingScheme", node: int) -> "BitArray":
        """``node``'s serialised pristine function under ``scheme`` (memoised).

        This is the graph+model knowledge a node's stored table is
        corrupted from and re-installed from
        (:meth:`~repro.simulator.network.Network.corrupt_table`,
        :meth:`~repro.simulator.network.Network.install_table`, which
        heals and churn repair installs share): the first corruption of a
        node pays for the encode, every repeat corruption, heal or
        install of that node is a context hit.  Keyed on the
        scheme *instance* (two same-named schemes may encode differently,
        e.g. under different port assignments); a strong reference pins the
        instance so its id cannot be recycled while memoised.
        """

        def _compute() -> Tuple["RoutingScheme", "BitArray"]:
            return (scheme, scheme.encode_function(node))

        held, bits = self._memo("pristine_bits", (id(scheme), node), _compute)
        if held is not scheme:  # pragma: no cover - defensive (id collision)
            raise GraphError("pristine-bits cache keyed a recycled scheme id")
        return bits

    def next_hop_matrix(self, scheme: "RoutingScheme") -> Optional[np.ndarray]:
        """``scheme``'s dense next-hop lookup, or None if not derivable.

        The matrix is :meth:`~repro.core.scheme.RoutingScheme.next_hop_rows`:
        one row per installed function, ``matrix[u - 1, d - 1]`` the next
        node on the route from ``u`` towards ``d``, ``-1`` for no route and
        ``-2`` for entries a vectorised consumer must resolve through the
        scalar path.  Each function derives its row from its own table
        where it has a fast form, else by the per-destination loop the
        fast forms are checked against.  ``None`` (header state, detour
        functions, a scheme-specific failure) sends batch consumers to
        scalar routing wholesale.

        Keyed on the scheme *instance* (like :meth:`pristine_bits`) with a
        strong reference pinning it against id recycling; the array is
        C-contiguous ``int32`` and frozen read-only.
        """

        def _compute() -> Tuple["RoutingScheme", Optional[np.ndarray]]:
            matrix = scheme.next_hop_rows()
            if matrix is not None:
                matrix.setflags(write=False)
            return (scheme, matrix)

        held, matrix = self._memo("next_hop_matrix", id(scheme), _compute)
        if held is not scheme:  # pragma: no cover - defensive (id collision)
            raise GraphError("next-hop cache keyed a recycled scheme id")
        return matrix

    def __repr__(self) -> str:
        return (
            f"GraphContext(n={self._graph.n}, edges={self._graph.edge_count}, "
            f"cached={sorted(self.cached_kinds())})"
        )


# -- process-wide store -------------------------------------------------------
#
# One context per structurally-distinct graph, LRU-bounded.  Strong refs are
# deliberate: LabeledGraph uses __slots__ without __weakref__, and pinning
# the handful of live graphs is exactly what makes identity keys safe.

_CTX_CACHE: "OrderedDict[Fingerprint, GraphContext]" = OrderedDict()
_CTX_BY_ID: Dict[int, GraphContext] = {}
_CTX_CACHE_SIZE = 8


def context_cache_size() -> int:
    """The LRU capacity of the process-wide context store."""
    return _CTX_CACHE_SIZE


def get_context(graph: LabeledGraph) -> GraphContext:
    """The shared :class:`GraphContext` of ``graph`` (created on first use).

    Keyed on :func:`structural_fingerprint`, so two equal graph objects
    (e.g. the same seeded sample drawn twice) share one context; an
    identity fast path skips the fingerprint for the overwhelmingly common
    same-object case.
    """
    registry = get_registry()
    ctx = _CTX_BY_ID.get(id(graph))
    if ctx is not None and (ctx.graph is graph or any(g is graph for g in ctx._aliases)):
        _CTX_CACHE.move_to_end(ctx.fingerprint)
        registry.counter(CTX_STORE_COUNTER, op="hit").inc()
        return ctx
    fingerprint = structural_fingerprint(graph)
    ctx = _CTX_CACHE.get(fingerprint)
    if ctx is not None and ctx.graph == graph:
        # A structurally-equal graph object: alias it onto the shared
        # context (the strong ref keeps its id stable while cached).
        ctx._aliases.append(graph)
        _CTX_BY_ID[id(graph)] = ctx
        _CTX_CACHE.move_to_end(fingerprint)
        registry.counter(CTX_STORE_COUNTER, op="hit").inc()
        return ctx
    ctx = GraphContext(graph, fingerprint=fingerprint)
    _CTX_CACHE[fingerprint] = ctx
    _CTX_BY_ID[id(graph)] = ctx
    registry.counter(CTX_STORE_COUNTER, op="miss").inc()
    while len(_CTX_CACHE) > _CTX_CACHE_SIZE:
        _, evicted = _CTX_CACHE.popitem(last=False)
        for key in [k for k, v in _CTX_BY_ID.items() if v is evicted]:
            del _CTX_BY_ID[key]
        registry.counter(CTX_STORE_COUNTER, op="eviction").inc()
    return ctx


def clear_context_cache() -> None:
    """Empty the process-wide store (tests and fresh experiment runs)."""
    _CTX_CACHE.clear()
    _CTX_BY_ID.clear()
