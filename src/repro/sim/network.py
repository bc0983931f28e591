"""Network delay models (Section 5.4 methodology).

The paper's model has two stages:

1. each *message* draws one base propagation time
   ``d ~ N(mu, sigma^2)`` (headline values: N(100, 20) ms);
2. each *receiver* of that message draws its own arrival delay from
   ``N(d, sigma_m^2)`` (headline skew: 20 ms) — so receptions of the same
   broadcast cluster around the message's base delay.

:class:`GaussianDelayModel` implements exactly that.
:class:`ConstantDelayModel` removes all network reordering; tests and the
virtual-time twins use it where an exact, reorder-free schedule is the
point.

All delays are milliseconds and strictly positive (Gaussian draws are
truncated just above zero by resampling).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.core.errors import ConfigurationError
from repro.util.rng import RandomSource

__all__ = [
    "DelayModel",
    "GaussianDelayModel",
    "ConstantDelayModel",
]

_MIN_DELAY_MS = 1e-6


class DelayModel(ABC):
    """Two-stage delay sampler: per-message base, per-receiver arrival."""

    @abstractmethod
    def sample_base(self, rng: RandomSource) -> float:
        """Draw the message's base propagation time ``d`` (ms)."""

    @abstractmethod
    def sample_arrival(self, rng: RandomSource, base: float) -> float:
        """Draw one receiver's delay given the message's base ``d`` (ms)."""

    @abstractmethod
    def mean_delay(self) -> float:
        """Expected one-way delay (ms), used to estimate the concurrency X
        and to size detector windows."""


class GaussianDelayModel(DelayModel):
    """The paper's model: ``d ~ N(mean, std²)``, arrivals ``~ N(d, skew_std²)``.

    Defaults are the paper's headline parameters (100, 20, 20).
    """

    def __init__(self, mean: float = 100.0, std: float = 20.0, skew_std: float = 20.0) -> None:
        if mean <= 0:
            raise ConfigurationError(f"mean delay must be > 0, got {mean}")
        if std < 0 or skew_std < 0:
            raise ConfigurationError("standard deviations must be >= 0")
        self._mean = mean
        self._std = std
        self._skew_std = skew_std

    def sample_base(self, rng: RandomSource) -> float:
        return rng.gauss_positive(self._mean, self._std, floor=_MIN_DELAY_MS)

    def sample_arrival(self, rng: RandomSource, base: float) -> float:
        if self._skew_std == 0:
            return base
        return rng.gauss_positive(base, self._skew_std, floor=_MIN_DELAY_MS)

    def mean_delay(self) -> float:
        return self._mean


class ConstantDelayModel(DelayModel):
    """Every reception takes exactly ``delay`` ms.

    With a constant delay there is no network reordering at all
    (``P_nc = 0``) so the probabilistic mechanism makes no errors —
    a useful sanity configuration for tests.
    """

    def __init__(self, delay: float = 100.0) -> None:
        if delay <= 0:
            raise ConfigurationError(f"delay must be > 0, got {delay}")
        self._delay = delay

    def sample_base(self, rng: RandomSource) -> float:
        return self._delay

    def sample_arrival(self, rng: RandomSource, base: float) -> float:
        return base

    def mean_delay(self) -> float:
        return self._delay
