"""Tests for the enumerative (combinatorial) codes."""

from __future__ import annotations

import math
import random
from typing import Sequence

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bitio import (
    BitReader,
    BitWriter,
    decode_permutation,
    decode_subset,
    encode_permutation,
    encode_subset,
    log2_binomial,
    log2_factorial,
    permutation_code_width,
    rank_permutation,
    rank_subset,
    read_subset,
    subset_code_width,
    unrank_permutation,
    unrank_subset,
    write_subset,
)
from repro.errors import BitstreamError


def reference_rank_permutation(perm: Sequence[int]) -> int:
    """The original O(d²) rank (each Lehmer digit times its factorial),
    kept verbatim as the oracle of ``rank_permutation``."""
    n = len(perm)
    if sorted(perm) != list(range(n)):
        raise BitstreamError(f"not a permutation of 0..{n - 1}: {perm!r}")
    rank = 0
    items = list(perm)
    for i in range(n):
        smaller = sum(1 for later in items[i + 1 :] if later < items[i])
        rank += smaller * math.factorial(n - 1 - i)
    return rank


@st.composite
def subsets(draw):
    n = draw(st.integers(min_value=1, max_value=24))
    k = draw(st.integers(min_value=0, max_value=n))
    positions = draw(
        st.lists(
            st.integers(min_value=0, max_value=n - 1),
            min_size=k,
            max_size=k,
            unique=True,
        )
    )
    return n, tuple(sorted(positions))


class TestSubsets:
    def test_rank_of_first_subset_is_zero(self):
        assert rank_subset((0, 1, 2), 6) == 0

    def test_rank_of_last_subset(self):
        assert rank_subset((3, 4, 5), 6) == math.comb(6, 3) - 1

    def test_rank_rejects_unsorted(self):
        with pytest.raises(BitstreamError):
            rank_subset((2, 1), 5)

    def test_rank_rejects_out_of_range(self):
        with pytest.raises(BitstreamError):
            rank_subset((0, 5), 5)

    def test_unrank_rejects_bad_rank(self):
        with pytest.raises(BitstreamError):
            unrank_subset(math.comb(5, 2), 5, 2)

    def test_lexicographic_order(self):
        ranked = sorted(
            ((rank_subset(s, 4), s) for s in [(0, 1), (0, 2), (0, 3), (1, 2),
                                              (1, 3), (2, 3)])
        )
        assert [s for _, s in ranked] == [
            (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)
        ]

    @given(subsets())
    def test_rank_unrank_round_trip(self, case):
        n, positions = case
        rank = rank_subset(positions, n)
        assert unrank_subset(rank, n, len(positions)) == positions

    @given(subsets())
    def test_bitcode_round_trip(self, case):
        n, positions = case
        bits = encode_subset(positions, n)
        assert decode_subset(bits, n, len(positions)) == positions

    @given(subsets())
    def test_code_width_is_information_optimal(self, case):
        n, positions = case
        k = len(positions)
        width = subset_code_width(n, k)
        assert width >= math.ceil(log2_binomial(n, k)) - 1e-9
        assert width <= math.ceil(log2_binomial(n, k)) + 1

    @given(subsets())
    def test_writer_reader_helpers(self, case):
        n, positions = case
        writer = BitWriter()
        write_subset(writer, positions, n)
        assert read_subset(BitReader(writer.getvalue()), n, len(positions)) == positions

    def test_decode_rejects_wrong_width(self):
        bits = encode_subset((0, 1), 5)  # C(5,2)=10 → 4 bits
        with pytest.raises(BitstreamError):
            decode_subset(bits, 20, 2)  # C(20,2)=190 → 8 bits expected


class TestPermutations:
    def test_identity_rank_zero(self):
        assert rank_permutation((0, 1, 2, 3)) == 0

    def test_reverse_is_last(self):
        assert rank_permutation((3, 2, 1, 0)) == math.factorial(4) - 1

    def test_rejects_non_permutation(self):
        with pytest.raises(BitstreamError):
            rank_permutation((0, 0, 1))

    def test_rank_matches_reference_up_to_600(self):
        # Every size to 128, then every 8th: the reference is O(d²).
        rng = random.Random(0)
        for d in [*range(128), *range(128, 601, 8)]:
            perm = list(range(d))
            rng.shuffle(perm)
            rank = rank_permutation(perm)
            assert rank == reference_rank_permutation(perm)
            assert unrank_permutation(rank, d) == tuple(perm)

    @pytest.mark.parametrize(
        "items",
        [(0, 0, 1), (1, 2), (-1, 0), (0, 2), (1,), (0, 1, 1, 3), (1.0, 0.0),
         (True, False), (2, 0, 1)],
    )
    def test_rejects_what_the_reference_rejects(self, items):
        def outcome(rank):
            try:
                return ("ok", rank(items))
            except BitstreamError as exc:
                return ("raise", str(exc))

        assert outcome(rank_permutation) == outcome(reference_rank_permutation)

    @given(st.permutations(list(range(8))))
    def test_rank_unrank_round_trip(self, perm):
        perm = tuple(perm)
        assert unrank_permutation(rank_permutation(perm), len(perm)) == perm

    @given(st.integers(min_value=1, max_value=9), st.randoms())
    def test_bitcode_round_trip(self, n, rng):
        perm = list(range(n))
        rng.shuffle(perm)
        perm = tuple(perm)
        bits = encode_permutation(perm)
        assert len(bits) == permutation_code_width(n)
        assert decode_permutation(bits, n) == perm

    def test_code_width_matches_log_factorial(self):
        for n in (1, 2, 5, 10, 20):
            width = permutation_code_width(n)
            assert width == math.ceil(math.log2(math.factorial(n))) or width == max(
                math.factorial(n) - 1, 0
            ).bit_length()

    def test_width_grows_like_n_log_n(self):
        """``log₂ n!`` is the Theorem 8/9 lower-bound scale."""
        assert permutation_code_width(64) >= 64 * math.log2(64) - 1.443 * 64 - 2


class TestLogHelpers:
    @given(st.integers(min_value=0, max_value=300))
    def test_log2_factorial_matches_exact(self, n):
        assert log2_factorial(n) == pytest.approx(
            math.log2(math.factorial(n)) if n else 0.0, rel=1e-9
        )

    @given(
        st.integers(min_value=0, max_value=200),
        st.integers(min_value=0, max_value=200),
    )
    def test_log2_binomial_matches_exact(self, n, k):
        if k > n:
            assert log2_binomial(n, k) == float("-inf")
        else:
            assert log2_binomial(n, k) == pytest.approx(
                math.log2(math.comb(n, k)) if math.comb(n, k) else 0.0,
                rel=1e-9, abs=1e-9,
            )

    def test_log2_factorial_rejects_negative(self):
        with pytest.raises(ValueError):
            log2_factorial(-1)
