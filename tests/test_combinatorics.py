"""Unit and property tests for combination ranking/unranking (Algorithm 3)."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.combinatorics import (
    binomial,
    num_key_sets,
    rank_lex,
    unrank_lex,
    validate_subset,
)
from repro.core.errors import ConfigurationError, RankOutOfRangeError


class TestBinomial:
    def test_matches_math_comb(self):
        for n in range(0, 20):
            for k in range(0, n + 1):
                assert binomial(n, k) == math.comb(n, k)

    def test_out_of_range_k_is_zero(self):
        assert binomial(5, -1) == 0
        assert binomial(5, 6) == 0

    def test_negative_n_rejected(self):
        with pytest.raises(ConfigurationError):
            binomial(-1, 0)

    def test_large_exact(self):
        # Exact integer arithmetic, no float rounding.
        assert binomial(100, 50) == math.comb(100, 50)


class TestNumKeySets:
    def test_paper_configuration(self):
        # R=100, K=4: the paper's reference point.
        assert num_key_sets(100, 4) == math.comb(100, 4) == 3_921_225

    def test_k_equals_r(self):
        assert num_key_sets(7, 7) == 1

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            num_key_sets(0, 1)
        with pytest.raises(ConfigurationError):
            num_key_sets(5, 6)
        with pytest.raises(ConfigurationError):
            num_key_sets(5, 0)


class TestUnrankLex:
    def test_known_sequence_r4_k2(self):
        expected = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        assert [unrank_lex(i, 4, 2) for i in range(6)] == expected

    def test_first_and_last(self):
        assert unrank_lex(0, 10, 3) == (0, 1, 2)
        assert unrank_lex(binomial(10, 3) - 1, 10, 3) == (7, 8, 9)

    def test_k_one_is_identity(self):
        for i in range(8):
            assert unrank_lex(i, 8, 1) == (i,)

    def test_k_zero(self):
        assert unrank_lex(0, 5, 0) == ()
        with pytest.raises(RankOutOfRangeError):
            unrank_lex(1, 5, 0)

    def test_rank_out_of_range(self):
        with pytest.raises(RankOutOfRangeError):
            unrank_lex(6, 4, 2)
        with pytest.raises(RankOutOfRangeError):
            unrank_lex(-1, 4, 2)

    def test_matches_iterator_order(self):
        combos = list(itertools.combinations(range(7), 3))
        assert combos == [unrank_lex(i, 7, 3) for i in range(binomial(7, 3))]


class TestRankLex:
    def test_inverse_small_exhaustive(self):
        for n in range(1, 9):
            for k in range(1, n + 1):
                for rank in range(binomial(n, k)):
                    assert rank_lex(unrank_lex(rank, n, k), n) == rank

    def test_rejects_unsorted(self):
        with pytest.raises(ConfigurationError):
            rank_lex((3, 1), 5)

    def test_rejects_out_of_domain(self):
        with pytest.raises(ConfigurationError):
            rank_lex((0, 5), 5)


def all_unranked(n, k):
    return [unrank_lex(rank, n, k) for rank in range(binomial(n, k))]


class TestIterCombinations:
    """Unranking every set_id in turn walks the K-subsets in exactly the
    order :func:`itertools.combinations` yields them."""

    def test_count(self):
        for n in range(1, 9):
            for k in range(1, n + 1):
                assert all_unranked(n, k) == list(itertools.combinations(range(n), k))

    def test_k_zero_yields_empty(self):
        assert all_unranked(4, 0) == [()] == list(itertools.combinations(range(4), 0))

    def test_k_greater_than_n_yields_nothing(self):
        assert all_unranked(3, 4) == [] == list(itertools.combinations(range(3), 4))
        with pytest.raises(RankOutOfRangeError):
            unrank_lex(0, 3, 4)

    def test_strictly_increasing_lex(self):
        combos = all_unranked(8, 4)
        assert combos == sorted(combos)
        assert len(set(combos)) == len(combos)


class TestValidateSubset:
    def test_accepts_sorted(self):
        assert validate_subset([0, 2, 4], 5) == (0, 2, 4)

    def test_rejects_duplicates(self):
        with pytest.raises(ConfigurationError):
            validate_subset([1, 1], 5)

    def test_rejects_non_int(self):
        with pytest.raises(ConfigurationError):
            validate_subset([0.5, 2], 5)

    def test_empty_ok(self):
        assert validate_subset([], 5) == ()


# ---------------------------------------------------------------------------
# property tests — the invariants the paper's key scheme relies on
# ---------------------------------------------------------------------------

rk_strategy = st.tuples(st.integers(2, 40), st.integers(1, 6)).filter(
    lambda pair: pair[1] <= pair[0]
)


@settings(max_examples=200, deadline=None)
@given(rk=rk_strategy, data=st.data())
def test_unrank_yields_k_distinct_entries_in_range(rk, data):
    """Every set_id expands to exactly K distinct entries in [0, R)."""
    r, k = rk
    rank = data.draw(st.integers(0, binomial(r, k) - 1))
    keys = unrank_lex(rank, r, k)
    assert len(keys) == k
    assert len(set(keys)) == k
    assert all(0 <= key < r for key in keys)
    assert list(keys) == sorted(keys)


@settings(max_examples=200, deadline=None)
@given(rk=rk_strategy, data=st.data())
def test_distinct_ids_yield_distinct_sets(rk, data):
    """Distinct set_ids give distinct key sets (intersection <= K-1)."""
    r, k = rk
    total = binomial(r, k)
    rank_a = data.draw(st.integers(0, total - 1))
    rank_b = data.draw(st.integers(0, total - 1))
    set_a = set(unrank_lex(rank_a, r, k))
    set_b = set(unrank_lex(rank_b, r, k))
    if rank_a != rank_b:
        assert set_a != set_b
        assert len(set_a & set_b) <= k - 1
    else:
        assert set_a == set_b


@settings(max_examples=200, deadline=None)
@given(rk=rk_strategy, data=st.data())
def test_rank_unrank_roundtrip(rk, data):
    r, k = rk
    rank = data.draw(st.integers(0, binomial(r, k) - 1))
    assert rank_lex(unrank_lex(rank, r, k), r) == rank


@settings(max_examples=100, deadline=None)
@given(rk=rk_strategy, data=st.data())
def test_lex_order_is_monotone(rk, data):
    """Lower rank means lexicographically smaller subset."""
    r, k = rk
    total = binomial(r, k)
    rank_a = data.draw(st.integers(0, total - 1))
    rank_b = data.draw(st.integers(0, total - 1))
    combo_a = unrank_lex(rank_a, r, k)
    combo_b = unrank_lex(rank_b, r, k)
    assert (rank_a < rank_b) == (combo_a < combo_b) or rank_a == rank_b
