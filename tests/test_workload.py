"""Tests for workload generators."""

import pytest

from repro.core.errors import ConfigurationError
from repro.sim.workload import PoissonWorkload
from repro.util.rng import RandomSource


class TestPoissonWorkload:
    def test_mean_interval(self):
        workload = PoissonWorkload(5000.0)
        assert workload.mean_interval() == 5000.0
        rng = RandomSource(seed=1)
        draws = [workload.next_interval(rng, 0) for _ in range(20_000)]
        assert sum(draws) / len(draws) == pytest.approx(5000, rel=0.05)
        assert all(d > 0 for d in draws)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PoissonWorkload(0)
