"""Combinatorial enumerative codes.

The incompressibility proofs repeatedly encode an object by its *index* in
an enumerable set: Lemma 1 encodes a node's interconnection pattern by its
index among all patterns of the same weight (a k-subset of positions), and
Theorems 8/9 encode port assignments and labellings as permutations.  This
module provides exact rank/unrank functions for both families, plus the
``log₂ k!`` helpers used in the size accounting.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.bitio.bitarray import BitArray
from repro.bitio.reader import BitReader
from repro.bitio.writer import BitWriter
from repro.errors import BitstreamError

__all__ = [
    "rank_subset",
    "unrank_subset",
    "subset_code_width",
    "encode_subset",
    "decode_subset",
    "rank_permutation",
    "unrank_permutation",
    "permutation_code_width",
    "encode_permutation",
    "decode_permutation",
    "log2_factorial",
    "log2_binomial",
]


# -- k-subsets of {0, ..., n-1} (combinatorial number system) --------------


def rank_subset(positions: Sequence[int], n: int) -> int:
    """Rank of a k-subset of ``{0..n-1}`` in lexicographic order.

    ``positions`` must be strictly increasing.  The rank is a number in
    ``[0, C(n, k))`` and the map is a bijection, so a pattern of known
    weight can be stored in exactly ``⌈log₂ C(n, k)⌉`` bits.
    """
    previous = -1
    for p in positions:
        if not previous < p < n:
            raise BitstreamError(
                f"positions must be strictly increasing in [0, {n}), got {positions}"
            )
        previous = p
    k = len(positions)
    rank = 0
    prev = -1
    remaining = k
    for p in positions:
        for skipped in range(prev + 1, p):
            rank += math.comb(n - skipped - 1, remaining - 1)
        prev = p
        remaining -= 1
    return rank


def unrank_subset(rank: int, n: int, k: int) -> tuple[int, ...]:
    """Inverse of :func:`rank_subset`."""
    total = math.comb(n, k)
    if not 0 <= rank < total:
        raise BitstreamError(f"rank {rank} out of range [0, {total})")
    positions = []
    candidate = 0
    remaining = k
    while remaining > 0:
        count_here = math.comb(n - candidate - 1, remaining - 1)
        if rank < count_here:
            positions.append(candidate)
            remaining -= 1
        else:
            rank -= count_here
        candidate += 1
    return tuple(positions)


def subset_code_width(n: int, k: int) -> int:
    """Bits needed to store the rank of a k-subset of an n-set."""
    return max(math.comb(n, k) - 1, 0).bit_length()


def encode_subset(positions: Sequence[int], n: int) -> BitArray:
    """Fixed-width enumerative encoding of a subset of known size."""
    width = subset_code_width(n, len(positions))
    return BitArray.from_int(rank_subset(positions, n), width)


def decode_subset(bits: BitArray, n: int, k: int) -> tuple[int, ...]:
    """Inverse of :func:`encode_subset` (requires ``n`` and ``k``)."""
    expected = subset_code_width(n, k)
    if len(bits) != expected:
        raise BitstreamError(
            f"subset code for C({n},{k}) must be {expected} bits, got {len(bits)}"
        )
    return unrank_subset(bits.to_int(), n, k)


# -- permutations (Lehmer code / factorial number system) ------------------


def rank_permutation(perm: Sequence[int]) -> int:
    """Rank of a permutation of ``{0..n-1}`` in lexicographic order.

    Theorem 8 (adversarial port assignments) and Theorem 9 (outer-node
    relabellings of the Figure 1 graph) both argue that a routing function
    must contain a full permutation; this rank is its minimal encoding.
    """
    n = len(perm)
    if sorted(perm) != list(range(n)):
        raise BitstreamError(f"not a permutation of 0..{n - 1}: {perm!r}")
    # Lehmer digit i counts the later entries smaller than entry i: one
    # strictly-upper-triangular comparison matrix, summed by rows.
    items = np.asarray(perm)
    digits = np.triu(items[None, :] < items[:, None], 1).sum(axis=1, dtype=np.int32)
    # Horner's rule over the factorial base: r <- r * (n - i) + digit i.
    rank = 0
    for i, digit in enumerate(digits.tolist()):
        rank = rank * (n - i) + digit
    return rank


def unrank_permutation(rank: int, n: int) -> tuple[int, ...]:
    """Inverse of :func:`rank_permutation`."""
    total = math.factorial(n)
    if not 0 <= rank < total:
        raise BitstreamError(f"rank {rank} out of range [0, {total})")
    available = list(range(n))
    perm = []
    for i in range(n):
        block = math.factorial(n - 1 - i)
        index, rank = divmod(rank, block)
        perm.append(available.pop(index))
    return tuple(perm)


def permutation_code_width(n: int) -> int:
    """Bits needed to store the rank of a permutation of n items."""
    return max(math.factorial(n) - 1, 0).bit_length()


def encode_permutation(perm: Sequence[int]) -> BitArray:
    """Fixed-width enumerative encoding of a permutation."""
    width = permutation_code_width(len(perm))
    return BitArray.from_int(rank_permutation(perm), width)


def decode_permutation(bits: BitArray, n: int) -> tuple[int, ...]:
    """Inverse of :func:`encode_permutation` (requires ``n``)."""
    expected = permutation_code_width(n)
    if len(bits) != expected:
        raise BitstreamError(
            f"permutation code for n={n} must be {expected} bits, got {len(bits)}"
        )
    return unrank_permutation(bits.to_int(), n)


# -- size accounting helpers ------------------------------------------------


def log2_factorial(n: int) -> float:
    """``log₂ n!`` computed stably via :func:`math.lgamma`."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    return math.lgamma(n + 1) / math.log(2.0)


def log2_binomial(n: int, k: int) -> float:
    """``log₂ C(n, k)`` computed stably via :func:`math.lgamma`."""
    if not 0 <= k <= n:
        return float("-inf")
    return log2_factorial(n) - log2_factorial(k) - log2_factorial(n - k)


# BitWriter/BitReader convenience -------------------------------------------


def write_subset(writer: BitWriter, positions: Sequence[int], n: int) -> None:
    """Write a fixed-width subset code to an open writer."""
    writer.write_uint(rank_subset(positions, n), subset_code_width(n, len(positions)))


def read_subset(reader: BitReader, n: int, k: int) -> tuple[int, ...]:
    """Read a fixed-width subset code from an open reader."""
    return unrank_subset(reader.read_uint(subset_code_width(n, k)), n, k)
