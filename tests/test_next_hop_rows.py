"""Next-hop matrices equal the per-destination loop, array for array.

``GraphContext.next_hop_matrix`` stacks one row per installed function,
read off the function's own table where it has a fast form
(``fast_next_hop_row``: full-table's ``PortTableFunction``) and the
scheme's addresses are the plain labels.  The oracle is the loop every
row is defined by, ``LocalRoutingFunction.next_hop_row``: one
``next_hop`` call per destination.  The matrix must equal the oracle's
stacked rows in values, ``int32`` dtype, shape and read-only flag, and be
``None`` exactly where the oracle is:

* every scheme × model of the golden grid at n=64, bare, CRC-8 framed
  and detour-wrapped;
* full-table with shuffled IA ports, and an identity-port full-table
  whose installed functions are decoded from a shuffled-port table's bits
  (``restore_scheme`` refuses that blob);
* full-table with an isolated node (``allow_unreachable``), on
  G(1024, 1/2), and under addresses that are not the plain labels.

A Hypothesis property pits the fast form against the loop on port rows
no builder would write: arbitrary ports, 0 and missing ports included,
under identity or shuffled ports of the scheme's graph or of another
graph on the same nodes.
"""

from __future__ import annotations

import random
from typing import Any, Hashable, Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    DetourWrapper,
    FullTableScheme,
    PortTableFunction,
    RoutingScheme,
    available_schemes,
    build_scheme,
    default_model,
    pack_scheme,
    restore_scheme,
)
from repro.core.scheme import NEXT_HOP_ROWS, LocalRoutingFunction
from repro.errors import CodecError, ReproError
from repro.graphs import LabeledGraph, PortAssignment, gnp_random_graph
from repro.integrity import FramingPolicy, IntegrityWrapper
from repro.models import Knowledge, Labeling, RoutingModel
from repro.observability import MetricsRegistry, set_registry
from repro.simulator import BatchKernel
from tests import make_scheme_goldens as goldens

II_ALPHA = RoutingModel(Knowledge.II, Labeling.ALPHA)
IA_ALPHA = RoutingModel(Knowledge.IA, Labeling.ALPHA)

FAST_SCHEMES = ("full-table",)
"""Schemes whose every installed function has a fast row form."""
LOOP_SCHEMES = (
    "chain-comparison",
    "full-information",
    "interval",
    "multi-interval",
    "thm1-two-level",
    "thm2-neighbor-labels",
    "thm3-centers",
    "thm4-hub",
)
"""Schemes whose rows come from the loop (a derivable matrix, no fast form)."""


def loop_matrix(scheme: RoutingScheme) -> Optional[np.ndarray]:
    """The oracle: every installed function's loop row, stacked and frozen."""
    graph = scheme.graph
    addresses = [scheme.address_of(d) for d in graph.nodes]
    rows = []
    for u in graph.nodes:
        try:
            function = scheme.function(u)
        except (ReproError, KeyError, IndexError, TypeError, ValueError):
            return None
        row = function.next_hop_row(addresses, graph)
        if row is None:
            return None
        rows.append(row)
    matrix = np.stack(rows)
    matrix.setflags(write=False)
    return matrix


def assert_matrix_is_the_loop(scheme: RoutingScheme) -> Optional[np.ndarray]:
    matrix = scheme.ctx.next_hop_matrix(scheme)
    expected = loop_matrix(scheme)
    if expected is None:
        assert matrix is None
        return None
    assert matrix is not None
    assert matrix.dtype == expected.dtype == np.int32
    assert matrix.shape == expected.shape
    assert matrix.flags.writeable is expected.flags.writeable is False
    assert matrix.flags.c_contiguous
    assert np.array_equal(matrix, expected)
    return matrix


# -- built schemes -------------------------------------------------------------


@pytest.mark.parametrize("name", available_schemes())
def test_golden_grid_matrices_are_the_loop(name):
    """Every model and seed of the n=64 golden grid for one scheme."""
    derivable = 0
    for scheme_name, model, n, seed in goldens.grid():
        if scheme_name != name or n != 64:
            continue
        try:
            scheme = build_scheme(name, goldens.graph_for(name, n, seed), model)
        except ReproError:
            continue
        framed = IntegrityWrapper(scheme, FramingPolicy.CRC8)
        derivable += assert_matrix_is_the_loop(scheme) is not None
        assert_matrix_is_the_loop(framed)
        assert assert_matrix_is_the_loop(DetourWrapper(scheme)) is None
    assert derivable > 0 or name in ("thm5-probe", "tree-cover")


def _shuffled_full_table(n: int) -> FullTableScheme:
    graph = gnp_random_graph(n, seed=0)
    ports = PortAssignment.shuffled(graph, random.Random(5))
    return FullTableScheme(graph, IA_ALPHA, ports=ports)


def test_shuffled_ports():
    assert assert_matrix_is_the_loop(_shuffled_full_table(256)) is not None


def test_restored_scheme_rows_come_from_its_decoded_functions():
    shuffled = _shuffled_full_table(256)
    graph = shuffled.graph
    # The blob holds no port assignment: rebuilt over the identity ports,
    # its functions do not encode to the blob's bits, and it is refused.
    with pytest.raises(CodecError, match="^node 1: "):
        restore_scheme(pack_scheme(shuffled), graph, IA_ALPHA)
    # Installed by hand over the identity ports, the blob's port numbers
    # name other neighbours than the table that scheme built for itself.
    installed = FullTableScheme(graph, IA_ALPHA)
    for u in graph.nodes:
        installed._function_cache[u] = installed.decode_function(
            u, shuffled.encode_function(u)
        )
    matrix = assert_matrix_is_the_loop(installed)
    own = assert_matrix_is_the_loop(FullTableScheme(graph, IA_ALPHA))
    assert matrix is not None and not np.array_equal(matrix, own)
    rng = np.random.default_rng(3)
    pairs = rng.choice(np.arange(1, graph.n + 1), size=(64, 2))
    runs = []
    for batch in (True, False):
        kernel = BatchKernel(installed, batch=batch)
        for source, target in pairs.tolist():
            if source != target:
                kernel.inject(source, target)
        runs.append(list(kernel.run()))
    assert runs[0] == runs[1]


def test_isolated_node():
    graph = gnp_random_graph(32, seed=4).without_node_edges(5)
    scheme = FullTableScheme(graph, II_ALPHA, allow_unreachable=True)
    matrix = assert_matrix_is_the_loop(scheme)
    assert matrix is not None
    others = np.arange(32) != 4
    assert (matrix[4, others] == -1).all()
    assert (matrix[others, 4] == -1).all()


def test_full_table_at_n1024():
    scheme = FullTableScheme(gnp_random_graph(1024, seed=0), II_ALPHA)
    assert assert_matrix_is_the_loop(scheme) is not None


# -- which form served ------------------------------------------------------------


@pytest.fixture
def registry():
    fresh = MetricsRegistry()
    previous = set_registry(fresh)
    yield fresh
    set_registry(previous)


@pytest.mark.parametrize("name", FAST_SCHEMES + LOOP_SCHEMES)
def test_rows_are_counted_by_the_form_that_produced_them(registry, name):
    scheme = build_scheme(
        name, goldens.graph_for(name, 64, 0), default_model(name)
    )
    assert scheme.ctx.next_hop_matrix(scheme) is not None

    def rows(form: str) -> float:
        return registry.counter(NEXT_HOP_ROWS, scheme=name, form=form).value

    if name in FAST_SCHEMES:
        assert (rows("fast"), rows("loop")) == (64, 0)
    else:
        assert (rows("fast"), rows("loop")) == (0, 64)


class ReversedAddresses(FullTableScheme):
    """Full-table addressed by ``n + 1 - label``, which its functions
    read as a label: rows the plain-label fast form must not serve."""

    def address_of(self, node: int) -> Hashable:
        return self.graph.n + 1 - node

    def node_of_address(self, address: Hashable) -> int:
        return self.graph.n + 1 - int(address)


def test_addresses_other_than_the_plain_labels_take_the_loop(registry):
    graph = gnp_random_graph(64, seed=0)
    reversed_rows = assert_matrix_is_the_loop(ReversedAddresses(graph, II_ALPHA))
    counts = [
        registry.counter(NEXT_HOP_ROWS, scheme="full-table", form=form).value
        for form in ("fast", "loop")
    ]
    assert counts == [0, 64]
    plain_rows = assert_matrix_is_the_loop(FullTableScheme(graph, II_ALPHA))
    assert reversed_rows is not None and plain_rows is not None
    assert not np.array_equal(reversed_rows, plain_rows)


# -- the fast form against the loop on arbitrary port rows --------------------------


def assert_fast_row_is_the_loop(
    function: LocalRoutingFunction, graph: LabeledGraph, applies: bool
) -> None:
    """A fast row, where one is given, equals the loop's over the plain
    labels; ``applies`` says the precondition holds, so one must be
    given."""
    fast = function.fast_next_hop_row(graph)
    loop = function.next_hop_row(list(graph.nodes), graph)
    if applies:
        assert fast is not None
    if fast is not None:
        assert loop is not None
        assert fast.dtype == np.int32
        assert fast.tolist() == loop.tolist()


@st.composite
def graph_and_node(draw: Any) -> Any:
    n = draw(st.integers(2, 14))
    graph = gnp_random_graph(n, seed=draw(st.integers(0, 2**16)))
    return graph, draw(st.integers(1, n))


@st.composite
def assignments(draw: Any, graph: LabeledGraph) -> PortAssignment:
    """Identity or shuffled ports, over ``graph`` or another graph on
    the same nodes."""
    if draw(st.booleans()):
        graph = gnp_random_graph(graph.n, seed=draw(st.integers(0, 2**16)))
    if draw(st.booleans()):
        return PortAssignment.shuffled(graph, random.Random(draw(st.integers())))
    return PortAssignment.identity(graph)


@settings(max_examples=80)
@given(st.data(), graph_and_node())
def test_port_table_row(data, drawn):
    graph, u = drawn
    n = graph.n
    assignment = data.draw(assignments(graph))
    degree = assignment.graph.degree(u)
    ports = data.draw(st.lists(st.integers(0, degree), min_size=n, max_size=n))
    missing = data.draw(st.sampled_from((None, -1, degree + 1)))
    if missing is not None:
        ports[data.draw(st.integers(0, n - 1))] = missing
    function = PortTableFunction(u, np.array(ports), assignment)
    others = ports[: u - 1] + ports[u:]
    applies = all(0 <= port <= degree for port in others)
    assert_fast_row_is_the_loop(function, graph, applies)
