"""Incompressibility arguments as executable graph codecs.

Every lower-bound proof in the paper has the same shape: *assume* some
structure (a deviant degree, a distant pair, a small routing function) and
build from it a description of ``G`` shorter than ``n(n-1)/2 - δ(n)`` bits,
contradicting randomness.  Here each proof is a :class:`GraphCodec`: a real
encoder/decoder pair whose output length can be measured and whose
round-trip is testable.  Running a codec on a graph *is* running the proof
on that graph:

* positive net savings ⇒ the graph was compressible ⇒ not ``δ``-random;
* on a random graph the codec must fail to save bits — and the measured
  deficit is exactly the quantity the theorem turns into a lower bound.

Each phase of a codec writes the ``E(G)`` bits of one pair mask through
:func:`~repro.graphs.encoding.write_pairs`; :func:`pairs_between` and
:func:`rest_pairs` build the two kinds of mask every proof uses.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from repro.bitio import BitArray
from repro.errors import CodecError
from repro.graphs import LabeledGraph, edge_code_length
from repro.observability import profile_section

__all__ = ["GraphCodec", "CodecReport", "evaluate_codec", "pairs_between", "rest_pairs"]


def pairs_between(
    n: int, left: Iterable[int], right: Optional[Iterable[int]] = None
) -> np.ndarray:
    """The ``(n, n)`` mask of the pairs ``{a, b}`` with ``a`` in ``left``
    and ``b`` in ``right`` (any node when ``right`` is None): "``u``'s
    row" is ``pairs_between(n, [u])``."""
    labels = np.arange(1, n + 1)
    cross = np.outer(
        np.isin(labels, list(left)),
        np.isin(labels, list(labels if right is None else right)),
    )
    return cross | cross.T


def rest_pairs(
    n: int, described: Iterable[int], deleted: Optional[np.ndarray] = None
) -> np.ndarray:
    """"The rest of ``E(G)``": the pairs incident to no ``described`` node,
    less the ``deleted`` ones."""
    rest = ~pairs_between(n, described)
    return rest if deleted is None else rest & ~deleted


class GraphCodec(abc.ABC):
    """An alternative self-delimiting description of a graph, given ``n``.

    ``n`` is side information (the paper conditions on it: ``C(E(G) | n)``),
    so decoders receive it explicitly.
    """

    name: str = "abstract"

    @abc.abstractmethod
    def encode(self, graph: LabeledGraph) -> BitArray:
        """Produce the proof's alternative description of the graph.

        Raises :class:`~repro.errors.CodecError` when the structure the
        proof exploits is absent (e.g. no distant pair for Lemma 2) — that
        *is* the lemma's statement for random graphs.
        """

    @abc.abstractmethod
    def decode(self, bits: BitArray, n: int) -> LabeledGraph:
        """Reconstruct the graph exactly from the alternative description."""

    def savings(self, graph: LabeledGraph) -> int:
        """``|E(G)| - |encoding|`` — bits saved against the canonical code.

        If this exceeds the randomness deficiency ``δ(n)``, the graph is not
        ``δ``-random; contrapositively, on a ``δ``-random graph the savings
        are bounded by ``δ(n)``, which is the inequality every theorem
        exploits.
        """
        return edge_code_length(graph.n) - len(self.encode(graph))


@dataclass(frozen=True)
class CodecReport:
    """Measured outcome of running one codec on one graph."""

    codec: str
    n: int
    baseline_bits: int
    encoded_bits: int
    round_trip_ok: bool

    @property
    def savings(self) -> int:
        """Bits saved relative to the canonical ``E(G)``."""
        return self.baseline_bits - self.encoded_bits


def evaluate_codec(codec: GraphCodec, graph: LabeledGraph) -> CodecReport:
    """Encode, decode, compare; raise :class:`CodecError` on mismatch."""
    with profile_section(f"codec.{codec.name}.encode"):
        bits = codec.encode(graph)
    with profile_section(f"codec.{codec.name}.decode"):
        rebuilt = codec.decode(bits, graph.n)
    ok = rebuilt == graph
    if not ok:
        raise CodecError(
            f"codec {codec.name} failed to round-trip a graph on n={graph.n}"
        )
    return CodecReport(
        codec=codec.name,
        n=graph.n,
        baseline_bits=edge_code_length(graph.n),
        encoded_bits=len(bits),
        round_trip_ok=ok,
    )
