"""Tests for the network delay models (Section 5.4 methodology)."""

import pytest

from repro.core.errors import ConfigurationError
from repro.sim.network import ConstantDelayModel, GaussianDelayModel
from repro.util.rng import RandomSource


class TestGaussianDelayModel:
    def test_defaults_match_the_paper(self):
        model = GaussianDelayModel()
        assert model.mean_delay() == 100.0

    def test_base_delay_distribution(self):
        model = GaussianDelayModel(mean=100, std=20, skew_std=20)
        rng = RandomSource(seed=1)
        draws = [model.sample_base(rng) for _ in range(10_000)]
        mean = sum(draws) / len(draws)
        assert mean == pytest.approx(100, abs=1.5)
        assert all(d > 0 for d in draws)

    def test_arrival_clusters_around_base(self):
        model = GaussianDelayModel(mean=100, std=20, skew_std=20)
        rng = RandomSource(seed=2)
        base = 140.0
        draws = [model.sample_arrival(rng, base) for _ in range(10_000)]
        assert sum(draws) / len(draws) == pytest.approx(base, abs=1.5)

    def test_zero_skew_returns_base(self):
        model = GaussianDelayModel(mean=100, std=20, skew_std=0)
        rng = RandomSource(seed=3)
        assert model.sample_arrival(rng, 123.4) == 123.4

    def test_always_positive_even_with_wild_parameters(self):
        model = GaussianDelayModel(mean=1, std=50, skew_std=50)
        rng = RandomSource(seed=4)
        for _ in range(2000):
            base = model.sample_base(rng)
            assert base > 0
            assert model.sample_arrival(rng, base) > 0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            GaussianDelayModel(mean=0)
        with pytest.raises(ConfigurationError):
            GaussianDelayModel(std=-1)


class TestConstantDelayModel:
    def test_exact_delay_no_reordering(self):
        model = ConstantDelayModel(delay=75.0)
        rng = RandomSource(seed=0)
        assert model.sample_base(rng) == 75.0
        assert model.sample_arrival(rng, 75.0) == 75.0
        assert model.mean_delay() == 75.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ConstantDelayModel(delay=0.0)
