"""Tests for the closed-form error analysis (Section 5.3)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ConfigurationError
from repro.core.theory import (
    expected_concurrency,
    optimal_k,
    optimal_k_int,
    p_entry_covered,
    p_error,
    p_reorder_same_sender,
    p_violation_bound,
    predicted_error_series,
    timestamp_overhead_bits,
)


class TestPError:
    def test_formula_matches_direct_evaluation(self):
        r, k, x = 100, 4, 20
        expected = (1 - (1 - 1 / r) ** (k * x)) ** k
        assert p_error(r, k, x) == pytest.approx(expected)

    def test_zero_concurrency_means_zero_error(self):
        assert p_error(100, 4, 0) == 0.0

    def test_monotone_in_concurrency(self):
        values = [p_error(100, 4, x) for x in (1, 5, 10, 20, 50)]
        assert values == sorted(values)

    def test_bigger_vector_is_better(self):
        assert p_error(200, 4, 20) < p_error(100, 4, 20) < p_error(50, 4, 20)

    def test_probability_bounds(self):
        for k in range(1, 20):
            value = p_error(100, k, 20)
            assert 0.0 <= value <= 1.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            p_error(0, 1, 5)
        with pytest.raises(ConfigurationError):
            p_error(10, 0, 5)
        with pytest.raises(ConfigurationError):
            p_error(10, 11, 5)
        with pytest.raises(ConfigurationError):
            p_error(10, 2, -1)

    def test_entry_covered_is_bloom_filter_term(self):
        assert p_entry_covered(100, 4, 20) == pytest.approx(
            1 - (1 - 0.01) ** 80
        )


class TestOptimalK:
    def test_paper_headline_value(self):
        # R=100, X=20: the paper reports ln(2)*100/20 ≈ 3.5.
        assert optimal_k(100, 20) == pytest.approx(3.4657, abs=1e-3)

    def test_integer_optimum_matches_paper_experiment(self):
        # The paper measures the empirical optimum at K=4 for this point;
        # the integer minimiser of the closed form lands there too.
        assert optimal_k_int(100, 20) in (3, 4)

    def test_integer_optimum_is_global_minimum(self):
        r, x = 60, 9
        best = optimal_k_int(r, x)
        best_value = p_error(r, best, x)
        for k in range(1, r + 1):
            assert best_value <= p_error(r, k, x) + 1e-15

    def test_huge_concurrency_pushes_k_to_one(self):
        assert optimal_k_int(10, 1000) == 1

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            optimal_k(0, 5)
        with pytest.raises(ConfigurationError):
            optimal_k(10, 0)

    def test_series_helper(self):
        series = predicted_error_series(100, 20, [1, 2, 3])
        assert [k for k, _ in series] == [1, 2, 3]
        assert all(0 <= v <= 1 for _, v in series)

    def test_series_evaluates_fractional_k_as_given(self):
        # The continuous optimum ≈ 3.47 is the whole point of fractional
        # k in p_error; the series must not truncate it to 3.
        k_star = optimal_k(100, 20)
        series = predicted_error_series(100, 20, [3, k_star, 4])
        assert [k for k, _ in series] == [3.0, pytest.approx(k_star), 4.0]
        assert series[1][1] == pytest.approx(p_error(100, k_star, 20))
        assert series[1][1] <= series[0][1]
        assert series[1][1] <= series[2][1]
        assert series[1][1] != p_error(100, 3, 20)

    def test_early_break_matches_full_scan(self):
        # The unimodal early-break must return exactly what the full
        # O(R) scan returned, across the whole (r, x, k_max) grid.
        def full_scan(r, x, k_max=None):
            upper = r if k_max is None else min(k_max, r)
            best_k, best_value = 1, p_error(r, 1, x)
            for k in range(2, upper + 1):
                value = p_error(r, k, x)
                if value < best_value:
                    best_k, best_value = k, value
            return best_k

        for r in (1, 2, 7, 40, 100, 256):
            for x in (0.01, 0.5, 1, 3, 9, 20, 77, 1000):
                for k_max in (None, 1, 4, 16, r):
                    assert optimal_k_int(r, x, k_max=k_max) == full_scan(
                        r, x, k_max
                    ), (r, x, k_max)

    def test_zero_concurrency_degenerate(self):
        # x=0 makes P_err identically 0; both scans keep K=1.
        assert optimal_k_int(50, 0.0) == 1


class TestExpectedConcurrency:
    def test_paper_headline_value(self):
        # 200 msg/s received, 100 ms propagation -> X = 20.
        assert expected_concurrency(200, 100) == pytest.approx(20.0)

    def test_zero_rate(self):
        assert expected_concurrency(0, 100) == 0.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            expected_concurrency(-1, 100)
        with pytest.raises(ConfigurationError):
            expected_concurrency(1, -1)


class TestPReorderSameSender:
    def test_zero_jitter_means_no_reordering(self):
        assert p_reorder_same_sender(1000, 0) == 0.0

    def test_monotone_in_jitter(self):
        values = [p_reorder_same_sender(1000, s) for s in (5, 20, 80)]
        assert values == sorted(values)

    def test_monotone_in_interval(self):
        fast = p_reorder_same_sender(100, 20)
        slow = p_reorder_same_sender(5000, 20)
        assert fast > slow

    def test_bounded_by_half(self):
        # Even with an (almost) zero gap the overtake probability of a
        # symmetric delay difference cannot exceed 1/2.
        assert 0 < p_reorder_same_sender(0.01, 20) <= 0.5

    def test_matches_monte_carlo(self):
        from repro.util.rng import RandomSource

        rng = RandomSource(seed=42)
        mean_gap, sigma = 200.0, 30.0
        hits = 0
        trials = 40_000
        for _ in range(trials):
            gap = rng.exponential(mean_gap)
            d1 = rng.gauss(100, sigma)
            d2 = rng.gauss(100, sigma)
            if gap + d2 < d1:
                hits += 1
        estimate = hits / trials
        analytic = p_reorder_same_sender(mean_gap, sigma)
        assert analytic == pytest.approx(estimate, abs=0.01)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            p_reorder_same_sender(0, 20)
        with pytest.raises(ConfigurationError):
            p_reorder_same_sender(100, -1)


class TestViolationBound:
    def test_product_form(self):
        assert p_violation_bound(0.1, 100, 4, 20) == pytest.approx(
            0.1 * p_error(100, 4, 20)
        )

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            p_violation_bound(1.5, 100, 4, 20)


class TestOverheadBits:
    def test_vector_clock_scaling(self):
        # (n, n, 1): overhead linear in n.
        assert timestamp_overhead_bits(1000, 1) > timestamp_overhead_bits(100, 1)

    def test_paper_configuration(self):
        # 100 entries * 32 bits + 4 keys * 7 bits (log2 99 -> 7)
        assert timestamp_overhead_bits(100, 4) == 100 * 32 + 4 * 7
        assert timestamp_overhead_bits(100, 4, bits_per_entry=8) == 100 * 8 + 4 * 7

    def test_lamport_clock(self):
        assert timestamp_overhead_bits(1, 1) == 32

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            timestamp_overhead_bits(0, 1)
        with pytest.raises(ConfigurationError):
            timestamp_overhead_bits(10, 0)


@settings(max_examples=100, deadline=None)
@given(r=st.integers(2, 500), x=st.floats(0.5, 200))
def test_continuous_optimum_sits_in_unimodal_valley(r, x):
    """The paper derives K_opt = ln2*R/X for the Bloom-filter
    approximation (1 - e^{-KX/R})^K of p_error; around that point the
    approximated functional is a valley (clamped to [1, R])."""

    def approx_p_error(k):
        return (1.0 - math.exp(-k * x / r)) ** k

    k_star = min(max(optimal_k(r, x), 1.0), float(r))
    below = max(1.0, k_star / 2)
    above = min(float(r), k_star * 2)
    at_star = approx_p_error(k_star)
    assert at_star <= approx_p_error(below) + 1e-12
    assert at_star <= approx_p_error(above) + 1e-12


@settings(max_examples=100, deadline=None)
@given(r=st.integers(8, 500), x=st.floats(0.5, 50))
def test_exact_integer_optimum_close_to_continuous(r, x):
    """The exact integer minimiser stays within one step of the paper's
    continuous formula (clamped), for realistically large R."""
    continuous = min(max(optimal_k(r, x), 1.0), float(r))
    integer_best = optimal_k_int(r, x)
    assert abs(integer_best - continuous) <= max(1.5, 0.5 * continuous)
