"""Integrity-framed decorator over any :class:`RoutingScheme`.

Mirrors :class:`~repro.core.detour.DetourWrapper`'s decorator shape:
addressing, routing behaviour, stretch and hop limits are the inner
scheme's, untouched.  Only the *serialised* functions change — every
``encode_function`` output gains a trailing checksum, ``decode_function``
verifies and strips it (raising
:class:`~repro.errors.IntegrityError` on mismatch), and the checksum width
is charged on the explicit ``integrity_bits`` line of the space report.

With ``FramingPolicy.NONE`` the wrapper is bit-for-bit transparent:
encodings, space reports and routing decisions are identical to the
wrapped scheme's.
"""

from __future__ import annotations

from typing import Hashable, Optional

from repro.bitio import BitArray
from repro.core.scheme import LocalRoutingFunction, RoutingScheme
from repro.graphs import GraphContext, LabeledGraph
from repro.integrity.framing import FramingPolicy, frame_bits, unframe_bits

__all__ = ["IntegrityWrapper"]


class IntegrityWrapper(RoutingScheme):
    """A :class:`RoutingScheme` decorator adding checksum framing.

    Transparent for routing (functions are the inner scheme's objects) and
    additive for space accounting: each node is charged
    ``policy.overhead_bits`` extra bits, reported on the
    ``integrity_bits`` line rather than folded into ``routing_bits``.
    """

    def __init__(
        self,
        inner: RoutingScheme,
        policy: FramingPolicy = FramingPolicy.CRC8,
    ) -> None:
        super().__init__(inner.graph, inner.model, ctx=inner.ctx)
        self._inner = inner
        self._policy = policy
        self.scheme_name = f"integrity-{policy.value}({inner.scheme_name})"

    @property
    def inner(self) -> RoutingScheme:
        """The wrapped scheme."""
        return self._inner

    @property
    def policy(self) -> FramingPolicy:
        """The framing policy applied to every encoded function."""
        return self._policy

    # -- repair: rebuild the inner scheme, keep the framing -------------------

    def rebuild(
        self, graph: LabeledGraph, ctx: Optional[GraphContext] = None
    ) -> "IntegrityWrapper":
        return IntegrityWrapper(self._inner.rebuild(graph, ctx=ctx), self._policy)

    # -- addressing: delegate -----------------------------------------------

    def address_of(self, node: int) -> Hashable:
        return self._inner.address_of(node)

    def node_of_address(self, address: Hashable) -> int:
        return self._inner.node_of_address(address)

    # -- routing: the live functions are the inner scheme's ------------------

    def _build_function(self, u: int) -> LocalRoutingFunction:
        return self._inner.function(u)

    # -- serialisation: frame on the way out, verify on the way in -----------

    def encode_function(self, u: int) -> BitArray:
        return frame_bits(self._inner.encode_function(u), self._policy)

    def decode_function(self, u: int, bits: BitArray) -> LocalRoutingFunction:
        payload = unframe_bits(bits, self._policy, node=u)
        return self._inner.decode_function(u, payload)

    # -- accounting ----------------------------------------------------------

    def label_bits(self, u: int) -> int:
        return self._inner.label_bits(u)

    def aux_bits(self, u: int) -> int:
        return self._inner.aux_bits(u)

    def integrity_bits(self, u: int) -> int:
        return self._policy.overhead_bits

    # -- guarantees ----------------------------------------------------------

    def stretch_bound(self) -> float:
        return self._inner.stretch_bound()

    def hop_limit(self) -> int:
        return self._inner.hop_limit()
